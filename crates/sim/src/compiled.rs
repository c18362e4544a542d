//! A pre-decoded interpreter for repeated execution of one function.
//!
//! The tree-walking interpreter in [`crate::execute_with`] re-inspects the
//! op arena on every visit: each operation costs an arena lookup and a
//! match on [`OpKind`], each phi a linear search for the executed
//! predecessor plus a fresh parallel-copy buffer, and each input a string
//! hash lookup. That is fine for one run, but candidate evaluation in the
//! search executes the *same* function across every trace vector — twice
//! (equivalence check + profile). [`CompiledFn`] decodes the function once
//! into a flat instruction array with pre-resolved value slots,
//! per-predecessor phi copy lists, an interned input-name table, and dense
//! branch/visit counters, and then replays it cheaply.
//!
//! The contract is *bit-identity* with [`crate::execute_with`]: identical
//! [`ExecResult`]s on success (including `ops_executed` and branch
//! statistics) and identical [`ExecError`]s on failure, for every input.
//! The incremental evaluation engine in `fact-core` relies on this to keep
//! incremental scores equal to full-pipeline scores.

use crate::interp::{BranchStats, ExecError, ExecResult};
use fact_ir::{DomTree, Function, LoopForest, MemId, OpKind, Terminator};
use std::collections::HashMap;

/// One decoded non-phi operation. Value operands are plain indices into
/// the dense value array (slot = `OpId::index()`).
#[derive(Clone)]
pub(crate) enum Inst {
    /// `values[dst] = value`.
    Const { dst: usize, value: i64 },
    /// `values[dst] = inputs[name]`; `name` indexes the interned table.
    Input { dst: usize, name: u32 },
    /// Binary operation.
    Bin {
        dst: usize,
        op: fact_ir::BinOp,
        a: usize,
        b: usize,
    },
    /// Unary operation.
    Un {
        dst: usize,
        op: fact_ir::UnOp,
        a: usize,
    },
    /// Select.
    Mux {
        dst: usize,
        cond: usize,
        on_true: usize,
        on_false: usize,
    },
    /// Memory read.
    Load { dst: usize, mem: usize, addr: usize },
    /// Memory write (defines the unit token 0).
    Store {
        dst: usize,
        mem: usize,
        addr: usize,
        value: usize,
    },
    /// Observable output; `name` indexes the output-name table.
    Output { dst: usize, name: u32, value: usize },
}

/// Decoded terminator with block indices instead of [`fact_ir::BlockId`]s.
#[derive(Clone)]
pub(crate) enum CTerm {
    Jump(usize),
    Branch {
        cond: usize,
        on_true: usize,
        on_false: usize,
    },
    Return(Option<usize>),
}

impl CTerm {
    /// The successor blocks.
    fn successors(&self) -> Vec<usize> {
        match *self {
            CTerm::Jump(t) => vec![t],
            CTerm::Branch {
                on_true, on_false, ..
            } => vec![on_true, on_false],
            CTerm::Return(_) => Vec::new(),
        }
    }

    /// Replaces every successor `s` with `to(s)`.
    fn retarget(&mut self, to: impl Fn(usize) -> usize) {
        match self {
            CTerm::Jump(t) => *t = to(*t),
            CTerm::Branch {
                on_true, on_false, ..
            } => {
                *on_true = to(*on_true);
                *on_false = to(*on_false);
            }
            CTerm::Return(_) => {}
        }
    }
}

/// Parallel-copy list for one incoming edge: the predecessor block index
/// and the `(dst, src)` slot pairs of the successor's phis in program
/// order, or `None` when some phi has no entry for that predecessor
/// (executing the edge then panics, exactly like the reference
/// interpreter).
pub(crate) type PhiCopies = (usize, Option<Vec<(usize, usize)>>);

/// One decoded block.
#[derive(Clone)]
pub(crate) struct CBlock {
    /// Parallel-copy lists, one per structural predecessor.
    pub(crate) phi_copies: Vec<PhiCopies>,
    /// Whether the block has any phis (skips phase 1 entirely when not).
    pub(crate) has_phis: bool,
    /// Non-phi operations in program order.
    pub(crate) insts: Vec<Inst>,
    pub(crate) term: CTerm,
}

/// A loop whose block visits and branches are counted by iteration
/// parity: innermost, one latch, one exit edge from the header
/// ([`fact_ir::NaturalLoop::is_simple`]). Such loops never overlap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ParityLoop {
    pub(crate) header: usize,
    /// The loop's blocks, ascending (the header included).
    pub(crate) blocks: Vec<usize>,
}

/// One run's odd-iteration counts: per block, visits and `(taken, not
/// taken)` on odd iterations of the parity loop holding it (iterations
/// are counted from 0 on each entry to the loop). Made once per
/// function ([`OddCounts::for_fn`]) and reused across its runs: each
/// successful run overwrites the parity loops' blocks, the only ones it
/// counts.
#[derive(Default)]
pub(crate) struct OddCounts {
    pub(crate) visits: Vec<u64>,
    pub(crate) branches: Vec<(u64, u64)>,
    /// The blocks of every parity loop.
    pub(crate) blocks: Vec<usize>,
}

impl OddCounts {
    /// Zeroed counts for runs of `cf`.
    pub(crate) fn for_fn(cf: &CompiledFn) -> OddCounts {
        let n = cf.num_blocks();
        OddCounts {
            visits: vec![0; n],
            branches: vec![(0, 0); n],
            blocks: cf.odd_copies.iter().map(|&(b, _)| b).collect(),
        }
    }
}

/// A function decoded for repeated execution.
///
/// Build once with [`CompiledFn::compile`], then call
/// [`CompiledFn::execute_seeded`] as many times as needed; results are
/// bit-identical to [`crate::execute_with`].
pub struct CompiledFn {
    pub(crate) blocks: Vec<CBlock>,
    pub(crate) entry: usize,
    pub(crate) num_ops: usize,
    /// Declared size of each memory, by index.
    pub(crate) mem_sizes: Vec<usize>,
    /// Interned input names (deduplicated; `Inst::Input` indexes here).
    pub(crate) input_names: Vec<String>,
    /// Output names (`Inst::Output` indexes here).
    pub(crate) output_names: Vec<String>,
    /// The loops whose counts are split by iteration parity, by header.
    pub(crate) parity_loops: Vec<ParityLoop>,
    /// Each parity loop block with the block running its odd iterations,
    /// appended after the function's own blocks ([`split_by_parity`]).
    pub(crate) odd_copies: Vec<(usize, usize)>,
}

impl CompiledFn {
    /// Decodes `f` into flat executable form, with every parity loop
    /// split by iteration parity (`split_by_parity`).
    pub fn compile(f: &Function) -> CompiledFn {
        let preds = f.predecessors();
        let mut input_names: Vec<String> = Vec::new();
        let mut output_names: Vec<String> = Vec::new();
        let mut blocks = Vec::with_capacity(f.num_blocks());
        for b in f.block_ids() {
            let block = f.block(b);
            // Phi parallel-copy lists, one per structural predecessor.
            let phi_slots: Vec<(usize, &Vec<(fact_ir::BlockId, fact_ir::OpId)>)> = block
                .ops
                .iter()
                .filter_map(|&op| match &f.op(op).kind {
                    OpKind::Phi(incoming) => Some((op.index(), incoming)),
                    _ => None,
                })
                .collect();
            let phi_copies = preds[b.index()]
                .iter()
                .map(|&p| {
                    let copies: Option<Vec<(usize, usize)>> = phi_slots
                        .iter()
                        .map(|&(dst, incoming)| {
                            incoming
                                .iter()
                                .find(|(src_b, _)| *src_b == p)
                                .map(|(_, v)| (dst, v.index()))
                        })
                        .collect();
                    (p.index(), copies)
                })
                .collect();
            let insts = block
                .ops
                .iter()
                .filter_map(|&op| {
                    let dst = op.index();
                    Some(match &f.op(op).kind {
                        OpKind::Phi(_) => return None,
                        OpKind::Const(c) => Inst::Const { dst, value: *c },
                        OpKind::Input(n) => Inst::Input {
                            dst,
                            name: intern(&mut input_names, n),
                        },
                        OpKind::Bin(bin, a, b2) => Inst::Bin {
                            dst,
                            op: *bin,
                            a: a.index(),
                            b: b2.index(),
                        },
                        OpKind::Un(un, a) => Inst::Un {
                            dst,
                            op: *un,
                            a: a.index(),
                        },
                        OpKind::Mux {
                            cond,
                            on_true,
                            on_false,
                        } => Inst::Mux {
                            dst,
                            cond: cond.index(),
                            on_true: on_true.index(),
                            on_false: on_false.index(),
                        },
                        OpKind::Load { mem, addr } => Inst::Load {
                            dst,
                            mem: mem.index(),
                            addr: addr.index(),
                        },
                        OpKind::Store { mem, addr, value } => Inst::Store {
                            dst,
                            mem: mem.index(),
                            addr: addr.index(),
                            value: value.index(),
                        },
                        OpKind::Output(n, v) => Inst::Output {
                            dst,
                            name: {
                                let i = output_names.len() as u32;
                                output_names.push(n.clone());
                                i
                            },
                            value: v.index(),
                        },
                    })
                })
                .collect();
            let term = match &block.term {
                Terminator::Jump(t) => CTerm::Jump(t.index()),
                Terminator::Branch {
                    cond,
                    on_true,
                    on_false,
                } => CTerm::Branch {
                    cond: cond.index(),
                    on_true: on_true.index(),
                    on_false: on_false.index(),
                },
                Terminator::Return(v) => CTerm::Return(v.map(|v| v.index())),
            };
            blocks.push(CBlock {
                has_phis: !phi_slots.is_empty(),
                phi_copies,
                insts,
                term,
            });
        }
        let parity_loops = parity_loops(f);
        let odd_copies = split_by_parity(&mut blocks, &parity_loops);
        CompiledFn {
            blocks,
            entry: f.entry().index(),
            num_ops: f.num_ops(),
            mem_sizes: f.memories().map(|(_, m)| m.size as usize).collect(),
            input_names,
            output_names,
            parity_loops,
            odd_copies,
        }
    }

    /// Number of memories the source function declared.
    pub fn num_memories(&self) -> usize {
        self.mem_sizes.len()
    }

    /// Number of blocks (same indexing as the source function).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len() - self.odd_copies.len()
    }

    /// Runs with initial memory images given positionally (memory index
    /// `i` starts as a copy of `init[i]`, resized to the declared size;
    /// missing entries are zero-filled). Bit-identical to
    /// [`crate::execute_with`] on the source function with
    /// `initial_memories` built from the same data.
    ///
    /// # Errors
    /// See [`ExecError`].
    pub fn execute_seeded(
        &self,
        inputs: &HashMap<String, i64>,
        init: &[Vec<i64>],
        step_limit: u64,
    ) -> Result<ExecResult, ExecError> {
        self.execute_counted(inputs, init, step_limit, None)
    }

    /// [`CompiledFn::execute_seeded`], also counting the run's
    /// odd-iteration visits and branches into `odd` when given (made for
    /// this function by [`OddCounts::for_fn`]).
    pub(crate) fn execute_counted(
        &self,
        inputs: &HashMap<String, i64>,
        init: &[Vec<i64>],
        step_limit: u64,
        odd: Option<&mut OddCounts>,
    ) -> Result<ExecResult, ExecError> {
        let memories = self
            .mem_sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| {
                let mut m = init.get(i).cloned().unwrap_or_default();
                m.resize(sz, 0);
                m
            })
            .collect();
        self.run(inputs, memories, step_limit, odd)
    }

    fn run(
        &self,
        inputs: &HashMap<String, i64>,
        mut memories: Vec<Vec<i64>>,
        step_limit: u64,
        mut odd: Option<&mut OddCounts>,
    ) -> Result<ExecResult, ExecError> {
        // Input values are resolved by name once per run; absence is only
        // an error if the corresponding Input op actually executes.
        let resolved: Vec<Option<i64>> = self
            .input_names
            .iter()
            .map(|n| inputs.get(n).copied())
            .collect();
        let mut values: Vec<i64> = vec![0; self.num_ops];
        let mut outputs: Vec<(String, i64)> = Vec::new();
        let mut branch_counts: Vec<(u64, u64)> = vec![(0, 0); self.blocks.len()];
        let mut block_visits: Vec<u64> = vec![0; self.blocks.len()];
        let mut ops_executed: u64 = 0;
        let mut phi_scratch: Vec<i64> = Vec::new();

        let mut cur = self.entry;
        let mut prev: Option<usize> = None;
        loop {
            block_visits[cur] += 1;
            let block = &self.blocks[cur];

            // Phase 1: phis, parallel-copy semantics (all sources read
            // before any destination is written).
            if block.has_phis {
                let pred = prev.expect("phi in entry block");
                let copies = block
                    .phi_copies
                    .iter()
                    .find(|(p, _)| *p == pred)
                    .map(|(_, c)| c.as_ref())
                    .expect("executed edge comes from a structural predecessor")
                    .expect("phi has entry for executed predecessor");
                phi_scratch.clear();
                phi_scratch.extend(copies.iter().map(|&(_, src)| values[src]));
                for (&(dst, _), &v) in copies.iter().zip(&phi_scratch) {
                    values[dst] = v;
                    ops_executed += 1;
                }
            }

            // Phase 2: non-phi operations in order.
            for inst in &block.insts {
                let (dst, value) = match *inst {
                    Inst::Const { dst, value } => (dst, value),
                    Inst::Input { dst, name } => match resolved[name as usize] {
                        Some(v) => (dst, v),
                        None => {
                            return Err(ExecError::MissingInput(
                                self.input_names[name as usize].clone(),
                            ))
                        }
                    },
                    Inst::Bin { dst, op, a, b } => (dst, op.eval(values[a], values[b])),
                    Inst::Un { dst, op, a } => (dst, op.eval(values[a])),
                    Inst::Mux {
                        dst,
                        cond,
                        on_true,
                        on_false,
                    } => (
                        dst,
                        if values[cond] != 0 {
                            values[on_true]
                        } else {
                            values[on_false]
                        },
                    ),
                    Inst::Load { dst, mem, addr } => {
                        let a = values[addr];
                        let arr = &memories[mem];
                        if a < 0 || a as usize >= arr.len() {
                            return Err(ExecError::OutOfBounds {
                                mem: MemId::new(mem),
                                addr: a,
                                size: arr.len() as u32,
                            });
                        }
                        (dst, arr[a as usize])
                    }
                    Inst::Store {
                        dst,
                        mem,
                        addr,
                        value,
                    } => {
                        let a = values[addr];
                        let v = values[value];
                        let arr = &mut memories[mem];
                        if a < 0 || a as usize >= arr.len() {
                            return Err(ExecError::OutOfBounds {
                                mem: MemId::new(mem),
                                addr: a,
                                size: arr.len() as u32,
                            });
                        }
                        arr[a as usize] = v;
                        (dst, 0)
                    }
                    Inst::Output { dst, name, value } => {
                        outputs.push((self.output_names[name as usize].clone(), values[value]));
                        (dst, 0)
                    }
                };
                values[dst] = value;
                ops_executed += 1;
                if ops_executed > step_limit {
                    return Err(ExecError::StepLimitExceeded { limit: step_limit });
                }
            }

            match block.term {
                CTerm::Jump(next) => {
                    prev = Some(cur);
                    cur = next;
                }
                CTerm::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let taken = values[cond] != 0;
                    let e = &mut branch_counts[cur];
                    if taken {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                    prev = Some(cur);
                    cur = if taken { on_true } else { on_false };
                }
                CTerm::Return(v) => {
                    // Fold the odd iterations back onto their blocks.
                    for &(b, c) in &self.odd_copies {
                        if let Some(odd) = odd.as_deref_mut() {
                            odd.visits[b] = block_visits[c];
                            odd.branches[b] = branch_counts[c];
                        }
                        block_visits[b] += block_visits[c];
                        branch_counts[b].0 += branch_counts[c].0;
                        branch_counts[b].1 += branch_counts[c].1;
                    }
                    let n = self.num_blocks();
                    block_visits.truncate(n);
                    branch_counts.truncate(n);
                    let mut branches = BranchStats::default();
                    for (i, &(t, fls)) in branch_counts.iter().enumerate() {
                        if t + fls > 0 {
                            branches.counts.insert(i, (t, fls));
                        }
                    }
                    return Ok(ExecResult {
                        outputs,
                        memories,
                        returned: v.map(|v| values[v]),
                        branches,
                        ops_executed,
                        block_visits,
                    });
                }
            }
        }
    }
}

/// Splits every parity loop of `blocks` by iteration parity: each loop
/// block gets a copy, appended, that runs its odd iterations. The back
/// edge leads from the even latch to the odd header and from the odd
/// latch to the even one, entering the loop still enters the even
/// header, and both headers leave for the same exit. The copies run the
/// same instructions on the same value slots, so runs are unchanged,
/// and a run counts each block's odd-iteration visits and branches in
/// its copy at no cost per visit. Returns each loop block with its copy.
fn split_by_parity(blocks: &mut Vec<CBlock>, loops: &[ParityLoop]) -> Vec<(usize, usize)> {
    let mut odd_copies = Vec::new();
    for l in loops {
        let first = blocks.len();
        let copy = |b: usize| l.blocks.binary_search(&b).ok().map(|k| first + k);
        let h = l.header;
        let h_odd = copy(h).expect("the header is in its loop");
        for &b in &l.blocks {
            let mut odd = blocks[b].clone();
            blocks[b].term.retarget(|s| if s == h { h_odd } else { s });
            odd.term
                .retarget(|s| if s == h { h } else { copy(s).unwrap_or(s) });
            // Every predecessor of a block but the header is in the loop;
            // the odd header is entered from the even latch only.
            if b != h {
                for (p, _) in &mut odd.phi_copies {
                    *p = copy(*p).expect("only the header is entered from outside");
                }
            }
            blocks.push(odd);
            odd_copies.push((b, copy(b).expect("a loop block")));
        }
        // The even header is entered from the odd latch as from the
        // latch, and the exit from the odd header as from the header.
        let back: Vec<PhiCopies> = blocks[h]
            .phi_copies
            .iter()
            .filter_map(|(p, e)| Some((copy(*p)?, e.clone())))
            .collect();
        blocks[h].phi_copies.extend(back);
        for exit in blocks[h].term.successors() {
            if copy(exit).is_none() {
                let from_odd = blocks[exit]
                    .phi_copies
                    .iter()
                    .find(|(p, _)| *p == h)
                    .map(|(_, e)| (h_odd, e.clone()));
                blocks[exit].phi_copies.extend(from_odd);
            }
        }
    }
    odd_copies
}

/// The parity loops of `f`, by header: the simple innermost loops.
fn parity_loops(f: &Function) -> Vec<ParityLoop> {
    if f.num_blocks() == 1 {
        return Vec::new();
    }
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let mut loops: Vec<ParityLoop> = forest
        .innermost()
        .filter(|l| l.is_simple())
        .map(|l| ParityLoop {
            header: l.header.index(),
            blocks: l.body.iter().map(|b| b.index()).collect(),
        })
        .collect();
    loops.sort_by_key(|l| l.header);
    loops
}

/// Interns `name` into `table`, returning its index.
fn intern(table: &mut Vec<String>, name: &str) -> u32 {
    if let Some(i) = table.iter().position(|n| n == name) {
        i as u32
    } else {
        table.push(name.to_string());
        (table.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_with, ExecConfig};
    use fact_lang::compile;

    /// Asserts compiled execution is bit-identical to the interpreter for
    /// the given program, inputs, and configuration.
    fn assert_identical(src: &str, inputs: &[(&str, i64)], config: &ExecConfig) {
        let f = compile(src).unwrap();
        let env: HashMap<String, i64> = inputs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let cf = CompiledFn::compile(&f);
        let reference = execute_with(&f, &env, config);
        let init: Vec<Vec<i64>> = (0..cf.num_memories())
            .map(|i| config.initial_memories.get(&i).cloned().unwrap_or_default())
            .collect();
        let fast = cf.execute_seeded(&env, &init, config.step_limit);
        match (reference, fast) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.outputs, b.outputs);
                assert_eq!(a.memories, b.memories);
                assert_eq!(a.returned, b.returned);
                assert_eq!(a.ops_executed, b.ops_executed);
                assert_eq!(a.block_visits, b.block_visits);
                assert_eq!(a.branches.counts, b.branches.counts);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("divergence: interpreter {a:?} vs compiled {b:?}"),
        }
    }

    #[test]
    fn straightline_matches() {
        assert_identical(
            "proc f(a, b) { out y = (a + b) * 2 - a / b; }",
            &[("a", 7), ("b", 3)],
            &ExecConfig::default(),
        );
    }

    #[test]
    fn loops_and_phis_match() {
        let src = r#"
            proc f(n) {
                var a = 1; var b = 2; var i = 0; var s = 0;
                while (i < n) {
                    var t = a; a = b; b = t;
                    if (i < 3) { s = s + a; } else { s = s - b; }
                    i = i + 1;
                }
                out s = s; out a = a; out b = b;
            }
        "#;
        for n in [0, 1, 5, 17] {
            assert_identical(src, &[("n", n)], &ExecConfig::default());
        }
    }

    #[test]
    fn memories_match_including_random_init() {
        let src = r#"
            proc f(n, k) {
                array x[8]; array y[4];
                var i = 0;
                while (i < n) { x[i] = x[i] + y[i % 4] * k; i = i + 1; }
                out v = x[0];
            }
        "#;
        let cfg = ExecConfig {
            initial_memories: HashMap::from([
                (0, vec![5, -3, 9, 0, 1, 2, 3, 4]),
                (1, vec![-7, 11, 0, 2]),
            ]),
            ..Default::default()
        };
        assert_identical(src, &[("n", 8), ("k", 3)], &cfg);
        // Undersized images are zero-extended identically.
        let short = ExecConfig {
            initial_memories: HashMap::from([(0, vec![5, -3])]),
            ..Default::default()
        };
        assert_identical(src, &[("n", 8), ("k", 3)], &short);
    }

    #[test]
    fn errors_match() {
        // Missing input.
        assert_identical("proc f(x) { out y = x; }", &[], &ExecConfig::default());
        // Out of bounds.
        assert_identical(
            "proc f(i) { array x[4]; x[i] = 1; }",
            &[("i", 9)],
            &ExecConfig::default(),
        );
        // Step limit, including the exact ops_executed boundary semantics.
        let tight = ExecConfig {
            step_limit: 100,
            ..Default::default()
        };
        assert_identical(
            "proc f(n) { var i = 1; while (i > 0) { i = i + 1; } }",
            &[("n", 1)],
            &tight,
        );
    }

    #[test]
    fn step_limit_boundary_is_exact() {
        // Find the exact op count, then check limits around it agree.
        let src = "proc f(n) { var i = 0; while (i < n) { i = i + 1; } out i = i; }";
        let f = compile(src).unwrap();
        let env = HashMap::from([("n".to_string(), 4)]);
        let total = execute_with(&f, &env, &ExecConfig::default())
            .unwrap()
            .ops_executed;
        for limit in [total - 1, total, total + 1] {
            let cfg = ExecConfig {
                step_limit: limit,
                ..Default::default()
            };
            assert_identical(src, &[("n", 4)], &cfg);
        }
    }

    #[test]
    fn execute_seeded_matches_map_form() {
        let src = "proc f(i) { array x[4]; var v = x[i]; x[i] = v + 1; out y = v; }";
        let f = compile(src).unwrap();
        let cf = CompiledFn::compile(&f);
        let env = HashMap::from([("i".to_string(), 2)]);
        let init = vec![vec![10, 20, 30, 40]];
        let cfg = ExecConfig {
            initial_memories: HashMap::from([(0, init[0].clone())]),
            ..Default::default()
        };
        let a = execute_with(&f, &env, &cfg).unwrap();
        let b = cf.execute_seeded(&env, &init, cfg.step_limit).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.memories, b.memories);
    }
}

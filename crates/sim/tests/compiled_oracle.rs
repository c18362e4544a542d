//! Compiled-interpreter oracle suite on straight-line programs.
//!
//! `simulate` claims that it profiles exactly as the interpreter oracle
//! (`profile`) does. These tests hold that claim against seed-driven
//! random programs that reach every operator's edges:
//!
//! 1. a generator emits straight-line blocks over every `BinOp`, `UnOp`,
//!    `Mux`, constants and several outputs (sometimes a return value),
//!    with op ids shuffled against block order so value slots are written
//!    both above and below their operands' slots;
//! 2. traces draw from a pool of edge values (`i64::MIN`, `-1`, `0`,
//!    shift counts below 0 and at or above 64) and repeat vectors, so
//!    division and remainder by 0, `i64::MIN / -1` and every shift edge
//!    occur and dedup weights are exercised;
//! 3. each program is simulated, and profile bits, `StepBound`, lanes and
//!    the vector count are compared with the oracle and with counts
//!    derived from it independently.
//!
//! Deliberately std-only and seed-driven (no proptest): a failure
//! reproduces exactly from the printed seed.

use fact_ir::{BinOp, Function, Op, OpId, OpKind, Terminator, UnOp};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sim::{check_equivalence, profile, simulate, CompiledFn, StepBound, TraceSet};
use std::collections::HashMap;

const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];

const UN_OPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::LNot];

/// Values that hit the operators' edges: division and remainder by 0,
/// `i64::MIN / -1`, wrapping, and shift counts that are negative or at
/// least 64.
const EDGES: [i64; 12] = [i64::MIN, i64::MAX, -65, -64, -1, 0, 1, 2, 63, 64, 65, 100];

const INPUTS: [&str; 3] = ["a", "b", "c"];
const SEEDS: u64 = 60;

/// A generated op, operands by block position.
#[derive(Clone, Copy)]
enum Kind {
    Input(usize),
    Const(i64),
    Bin(BinOp, usize, usize),
    Un(UnOp, usize),
    Mux(usize, usize, usize),
    Output(usize),
}

/// The straight-line block `seed` describes, as op kinds in block order
/// plus the returned position (if any).
fn gen_kinds(rng: &mut StdRng) -> (Vec<Kind>, Option<usize>) {
    // Every input name at least once, some twice (one interned name).
    let mut kinds: Vec<Kind> = (0..INPUTS.len()).map(Kind::Input).collect();
    let mut outputs = 0;
    for _ in 0..rng.gen_range(4..28usize) {
        let n = kinds.len();
        let mut pick = || rng.gen_range(0..n);
        let (a, b, c) = (pick(), pick(), pick());
        let kind = match rng.gen_range(0..12u32) {
            0 => Kind::Const(EDGES[rng.gen_range(0..EDGES.len())]),
            1 => Kind::Input(rng.gen_range(0..INPUTS.len())),
            2..=6 => Kind::Bin(BIN_OPS[rng.gen_range(0..BIN_OPS.len())], a, b),
            7 => Kind::Un(UN_OPS[rng.gen_range(0..UN_OPS.len())], a),
            8 => Kind::Mux(a, b, c),
            _ => {
                outputs += 1;
                Kind::Output(a)
            }
        };
        kinds.push(kind);
    }
    if outputs == 0 {
        kinds.push(Kind::Output(kinds.len() - 1));
    }
    let returned = rng.gen_bool(0.5).then(|| rng.gen_range(0..kinds.len()));
    (kinds, returned)
}

/// Builds the function for `kinds`, with arena ids shuffled by `ids`
/// (block position `i` gets `OpId` `ids[i]`).
fn build(kinds: &[Kind], returned: Option<usize>, ids: &[usize]) -> Function {
    let mut f = Function::new("gen");
    let id_of: Vec<OpId> = (0..kinds.len())
        .map(|_| f.emit_detached(Op::new(OpKind::Const(0))))
        .collect();
    let v = |p: usize| id_of[ids[p]];
    for (i, kind) in kinds.iter().enumerate() {
        f.op_mut(v(i)).kind = match *kind {
            Kind::Input(n) => OpKind::Input(INPUTS[n].to_string()),
            Kind::Const(c) => OpKind::Const(c),
            Kind::Bin(op, a, b) => OpKind::Bin(op, v(a), v(b)),
            Kind::Un(op, a) => OpKind::Un(op, v(a)),
            Kind::Mux(c, t, e) => OpKind::Mux {
                cond: v(c),
                on_true: v(t),
                on_false: v(e),
            },
            Kind::Output(a) => OpKind::Output(format!("o{i}"), v(a)),
        };
    }
    let entry = f.entry();
    f.block_mut(entry).ops = (0..kinds.len()).map(v).collect();
    f.set_terminator(entry, Terminator::Return(returned.map(v)));
    f
}

/// The program `seed` describes, with its arena ids shuffled against
/// block order.
fn gen_case(seed: u64) -> Function {
    let mut rng = StdRng::seed_from_u64(seed);
    let (kinds, returned) = gen_kinds(&mut rng);
    let mut ids: Vec<usize> = (0..kinds.len()).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    build(&kinds, returned, &ids)
}

/// `n` trace vectors over the three inputs: edge values, small values
/// and wide random ones, with whole vectors repeated so dedup lanes carry
/// weights above 1.
fn gen_traces(seed: u64) -> TraceSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA5E7);
    let n = rng.gen_range(1..=80usize);
    let mut vectors: Vec<HashMap<String, i64>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !vectors.is_empty() && rng.gen_bool(0.3) {
            let again = vectors[rng.gen_range(0..vectors.len())].clone();
            vectors.push(again);
            continue;
        }
        let v = INPUTS
            .iter()
            .map(|name| {
                let x = match rng.gen_range(0..3u32) {
                    0 => EDGES[rng.gen_range(0..EDGES.len())],
                    1 => rng.gen_range(-3i64..=3),
                    _ => rng.gen_range(-1_000_000i64..1_000_000),
                };
                (name.to_string(), x)
            })
            .collect();
        vectors.push(v);
    }
    TraceSet::new(vectors)
}

/// The interpreter's step bound for a straight-line function: every
/// vector runs each op once, in one block entry.
fn oracle_steps(f: &Function, traces: &TraceSet) -> StepBound {
    let mut bound = StepBound::default();
    for v in &traces.vectors {
        let r = fact_sim::execute(f, v).expect("straight-line code never fails");
        bound.ops = bound.ops.max(r.ops_executed);
        bound.entries = bound.entries.max(r.block_visits.iter().sum());
    }
    bound
}

#[test]
fn profiles_match_the_oracle() {
    for seed in 0..SEEDS {
        let f = gen_case(seed);
        let traces = gen_traces(seed);
        let sim = simulate(&CompiledFn::compile(&f), &traces);
        let ctx = format!("seed {seed}");
        assert_eq!(sim.profile, profile(&f, &traces), "profile ({ctx})");
        assert_eq!(
            sim.steps,
            Some(oracle_steps(&f, &traces)),
            "step bound ({ctx})"
        );
        assert_eq!(sim.lanes, traces.dedup_lanes().len(), "lanes ({ctx})");
        assert_eq!(sim.vectors, traces.len() as u64, "vectors ({ctx})");
    }
}

/// Every operator over the full grid of edge-value pairs: lane by lane,
/// the compiled interpreter must emit what the reference interpreter
/// emits, each slot layout is equivalent to the other, and `simulate`
/// profiles one lane per pair.
#[test]
fn every_operator_matches_on_edge_values() {
    let mut vectors = Vec::new();
    for &a in &EDGES {
        for &b in &EDGES {
            vectors.push(HashMap::from([("a".to_string(), a), ("b".to_string(), b)]));
        }
    }
    let traces = TraceSet::new(vectors);
    let ops = BIN_OPS
        .iter()
        .map(|&op| Kind::Bin(op, 0, 1))
        .chain(UN_OPS.iter().map(|&op| Kind::Un(op, 1)))
        .chain([Kind::Mux(0, 1, 0)]);
    for op in ops {
        let kinds = [Kind::Input(0), Kind::Input(1), op, Kind::Output(2)];
        let layouts = [[0, 1, 2, 3], [3, 2, 1, 0]].map(|ids| build(&kinds, Some(2), &ids));
        for (f, other) in [(&layouts[0], &layouts[1]), (&layouts[1], &layouts[0])] {
            let cf = CompiledFn::compile(f);
            for v in &traces.vectors {
                let want = fact_sim::execute(f, v).expect("straight-line code never fails");
                let got = cf
                    .execute(v, u64::MAX)
                    .expect("straight-line code never fails");
                assert_eq!(
                    (&got.outputs, got.returned),
                    (&want.outputs, want.returned),
                    "{v:?}: {f:?}"
                );
            }
            check_equivalence(other, f, &traces, 1).expect("the layouts are equivalent");
            let sim = simulate(&cf, &traces);
            assert_eq!(sim.profile, profile(f, &traces), "{f:?}");
            assert_eq!(sim.lanes, EDGES.len() * EDGES.len());
        }
    }
}

//! Seed-driven generator of single-block list-scheduling problems.
//!
//! A seed describes one straight-line block — inputs, constants, binary
//! and unary datapath ops, muxes, loads and stores over several memories,
//! and outputs — plus an allocation (zero counts included), and a clock
//! period. Arena ids are assigned in a shuffled order, so `OpId` order
//! differs from block order and the scheduler's id tie-break is
//! exercised. Deliberately std-only: a failure reproduces exactly from
//! the printed seed.

use fact_ir::{BinOp, Function, MemId, Op, OpId, OpKind, UnOp};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sched::{Allocation, FuLibrary, FuSelection, FuSpec, SelectionRules};

/// Clock periods drawn from: 10 ns is shorter than a memory access
/// (`ClockTooShort`), 15 ns makes the 23 ns multiply a two-cycle op.
pub const CLOCKS: [f64; 4] = [10.0, 15.0, 25.0, 40.0];

/// Unit names of [`library`], in allocation order.
pub const UNITS: [&str; 6] = ["add", "sub", "mul", "cmp", "incr", "logic"];

/// One generated scheduling problem; the block is `f.entry()`.
pub struct Problem {
    pub f: Function,
    pub lib: FuLibrary,
    pub sel: FuSelection,
    pub alloc: Allocation,
    pub clk: f64,
}

/// The unit library and selection rules every problem uses (memory
/// accesses take 15 ns).
pub fn library() -> (FuLibrary, SelectionRules) {
    let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
    let mut unit = |name: &str, delay_ns: f64| {
        lib.add(FuSpec {
            name: name.into(),
            energy_coeff: 1.0,
            delay_ns,
            area: 1.0,
        })
    };
    let add = unit("add", 10.0);
    let sub = unit("sub", 10.0);
    let mul = unit("mul", 23.0);
    let cmp = unit("cmp", 12.0);
    let incr = unit("incr", 5.0);
    let logic = unit("logic", 4.0);
    let rules = SelectionRules {
        add: Some(add),
        sub: Some(sub),
        mul: Some(mul),
        cmp: Some(cmp),
        eq: Some(cmp),
        incr: Some(incr),
        logic: Some(logic),
        ..Default::default()
    };
    (lib, rules)
}

/// The problem `seed` describes, with `pad` unused ops allocated ahead
/// of the block's (every `OpId` shifts by `pad`; the structure does not).
pub fn problem(seed: u64, pad: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lib, rules) = library();
    let mut f = Function::new("gen");
    for _ in 0..pad {
        f.emit_detached(Op::new(OpKind::Const(0)));
    }
    let mems: Vec<MemId> = (0..rng.gen_range(0..4usize))
        .map(|m| f.add_memory(format!("m{m}"), 16))
        .collect();

    // Op kinds in block order; operands name earlier block positions.
    let inputs = rng.gen_range(1..4usize);
    let body = rng.gen_range(1..24usize);
    let mut kinds: Vec<Kind> = (0..inputs).map(|_| Kind::Input).collect();
    let mut outputs = 0;
    for _ in 0..body {
        let n = kinds.len();
        let mut pick = || rng.gen_range(0..n);
        let (a, b, c) = (pick(), pick(), pick());
        let kind = match rng.gen_range(0..14u32) {
            0 => Kind::Const(rng.gen_range(-2i64..3)),
            1..=2 => Kind::Bin(BinOp::Add, a, b),
            3 => Kind::Bin(BinOp::Sub, a, b),
            4..=5 => Kind::Bin(BinOp::Mul, a, b),
            6 => Kind::Bin(BinOp::Lt, a, b),
            7 => Kind::Bin(BinOp::Xor, a, b),
            8 => Kind::Un(UnOp::Not, a),
            9 => Kind::Mux(a, b, c),
            10 | 11 if !mems.is_empty() => Kind::Load(rng.gen_range(0..mems.len()), a),
            12 if !mems.is_empty() => Kind::Store(rng.gen_range(0..mems.len()), a, b),
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

    // Arena ids, shuffled over block positions; then kinds and block order.
    let mut id_of: Vec<OpId> = (0..kinds.len())
        .map(|_| f.emit_detached(Op::new(OpKind::Const(0))))
        .collect();
    for i in (1..id_of.len()).rev() {
        id_of.swap(i, rng.gen_range(0..=i));
    }
    for (i, kind) in kinds.iter().enumerate() {
        let v = |p: usize| id_of[p];
        f.op_mut(id_of[i]).kind = match *kind {
            Kind::Input => OpKind::Input(format!("i{i}")),
            Kind::Const(c) => OpKind::Const(c),
            Kind::Bin(op, a, b) => OpKind::Bin(op, v(a), v(b)),
            Kind::Un(op, a) => OpKind::Un(op, v(a)),
            Kind::Mux(c, t, e) => OpKind::Mux {
                cond: v(c),
                on_true: v(t),
                on_false: v(e),
            },
            Kind::Load(m, a) => OpKind::Load {
                mem: mems[m],
                addr: v(a),
            },
            Kind::Store(m, a, b) => OpKind::Store {
                mem: mems[m],
                addr: v(a),
                value: v(b),
            },
            Kind::Output(a) => OpKind::Output(format!("y{i}"), v(a)),
        };
    }
    let entry = f.entry();
    f.block_mut(entry).ops = id_of;

    let sel = FuSelection::from_rules(&f, &rules).expect("every generated op has a unit");
    let mut alloc = Allocation::new();
    for name in UNITS {
        // Mostly 1-3 instances; sometimes none, to provoke NoInstances.
        let n = if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(1..4u32)
        };
        alloc.set(lib.by_name(name).expect("unit exists"), n);
    }
    let clk = CLOCKS[rng.gen_range(0..CLOCKS.len())];
    Problem {
        f,
        lib,
        sel,
        alloc,
        clk,
    }
}

/// A generated op, operands by block position.
enum Kind {
    Input,
    Const(i64),
    Bin(BinOp, usize, usize),
    Un(UnOp, usize),
    Mux(usize, usize, usize),
    Load(usize, usize),
    Store(usize, usize, usize),
    Output(usize),
}

//! Property: printing any AST yields source that reparses to the same AST,
//! and lowering it produces verifiable SSA.
//!
//! Programs come from a seed-driven generator over the in-tree
//! `fact-prng` (std-only, so the suite runs offline); a failure prints
//! the seed and the program.

use fact_ir::{BinOp, UnOp};
use fact_lang::ast::{Expr, Proc, Stmt};
use fact_lang::{lower, parse, print_proc};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};

/// Generated programs checked per property.
const CASES: u64 = 256;

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

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

/// An expression at most `depth` operators deep over non-negative
/// literals and the variable pool.
fn expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_range(0..3u32) == 0 {
        return if rng.gen_bool(0.5) {
            Expr::Int(rng.gen_range(0i64..100))
        } else {
            Expr::Var(NAMES[rng.gen_range(0..NAMES.len())].to_string())
        };
    }
    if rng.gen_range(0..4u32) == 0 {
        let op = UN_OPS[rng.gen_range(0..UN_OPS.len())];
        Expr::Un(op, Box::new(expr(rng, depth - 1)))
    } else {
        let op = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
        Expr::bin(op, expr(rng, depth - 1), expr(rng, depth - 1))
    }
}

/// `lo..hi` statements nested at most `depth` deep.
fn stmts(rng: &mut StdRng, depth: u32, lo: usize, hi: usize) -> Vec<Stmt> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| stmt(rng, depth)).collect()
}

fn stmt(rng: &mut StdRng, depth: u32) -> Stmt {
    let pick = if depth == 0 {
        rng.gen_range(0..5u32)
    } else {
        rng.gen_range(0..8u32)
    };
    match pick {
        0..=2 => Stmt::Assign(
            NAMES[rng.gen_range(0..NAMES.len())].to_string(),
            expr(rng, 3),
        ),
        3..=4 => Stmt::Out("y".to_string(), expr(rng, 3)),
        5 => Stmt::If {
            cond: expr(rng, 3),
            then_body: stmts(rng, depth - 1, 1, 3),
            else_body: stmts(rng, depth - 1, 0, 3),
        },
        6 => Stmt::While {
            cond: expr(rng, 3),
            body: stmts(rng, depth - 1, 1, 3),
        },
        _ => Stmt::DoWhile {
            body: stmts(rng, depth - 1, 1, 3),
            cond: expr(rng, 3),
        },
    }
}

/// The program `seed` describes: the variable pool declared up front so
/// every name resolves, then one to four statements.
fn program(seed: u64) -> Proc {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body: Vec<Stmt> = NAMES
        .iter()
        .map(|n| Stmt::VarDecl(n.to_string(), Expr::Int(1)))
        .collect();
    body.extend(stmts(&mut rng, 2, 1, 5));
    Proc {
        name: "rt".to_string(),
        inputs: vec!["p".to_string()],
        body,
    }
}

#[test]
fn print_parse_roundtrip() {
    for seed in 0..CASES {
        let p = program(seed);
        let printed = print_proc(&p);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{printed}"));
        assert_eq!(p, reparsed, "seed {seed}: printed:\n{printed}");
    }
}

#[test]
fn printed_programs_lower_and_verify() {
    // Loops generated here may not terminate dynamically; this property
    // is purely static: lowering + IR verification succeed.
    for seed in 0..CASES {
        let p = program(seed);
        let f = lower(&p)
            .unwrap_or_else(|e| panic!("seed {seed}: lowering failed: {e}\n{}", print_proc(&p)));
        fact_ir::verify::verify(&f)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", print_proc(&p)));
    }
}

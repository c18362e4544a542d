//! Algebraic transformations: commutativity, associativity (including
//! tree-height rebalancing), and distributivity in both directions.
//!
//! Each transformation enumerates candidates (transformed whole-function
//! copies) and leaves profitability to the scheduling-driven search —
//! the paper's Example 2 shows why: whether `(y1+y2)-(y3+y4)` or
//! `(y1-y3)+(y2-y4)` is better depends entirely on which units the
//! surrounding schedule leaves idle.

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use crate::util::{as_bin, placed_ops};
use fact_ir::{BinOp, Function, Op, OpId, OpKind};

/// Operand swap of commutative operations (and mirrored comparisons).
pub struct Commutativity;

impl Transform for Commutativity {
    fn kind(&self) -> TransformKind {
        TransformKind::Commutativity
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("commutativity", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let mut out = Vec::new();
        for (b, op) in placed_ops(f) {
            if !region.covers(b) {
                continue;
            }
            let Some((bin, x, y)) = as_bin(f, op) else {
                continue;
            };
            if x == y {
                continue;
            }
            let new_kind = if bin.is_commutative() {
                Some(OpKind::Bin(bin, y, x))
            } else {
                bin.mirrored().map(|m| OpKind::Bin(m, y, x))
            };
            if let Some(kind) = new_kind {
                let mut g = f.clone();
                g.op_mut(op).kind = kind;
                out.push(Candidate {
                    kind: TransformKind::Commutativity,
                    description: format!("swap operands of {op} ({bin})"),
                    function: g,
                    map: None,
                });
            }
        }
        out
    }
}

/// Re-association of associative chains, including full tree-height
/// rebalancing (the classic throughput transformation for reductions).
pub struct Associativity;

impl Associativity {
    /// Collects the leaves of the maximal single-use same-operator tree
    /// rooted at `op`, left to right. Returns `None` if the tree is just
    /// the root's two operands.
    fn leaves(f: &Function, root: OpId, bin: BinOp, uses: &[usize]) -> Vec<OpId> {
        fn go(f: &Function, v: OpId, bin: BinOp, uses: &[usize], root: OpId, out: &mut Vec<OpId>) {
            if v != root {
                if let Some((b2, ..)) = as_bin(f, v) {
                    if b2 == bin && uses[v.index()] == 1 {
                        let (_, x, y) = as_bin(f, v).unwrap();
                        go(f, x, bin, uses, root, out);
                        go(f, y, bin, uses, root, out);
                        return;
                    }
                }
                out.push(v);
                return;
            }
            let (_, x, y) = as_bin(f, v).unwrap();
            go(f, x, bin, uses, root, out);
            go(f, y, bin, uses, root, out);
        }
        let mut out = Vec::new();
        go(f, root, bin, uses, root, &mut out);
        out
    }
}

impl Transform for Associativity {
    fn kind(&self) -> TransformKind {
        TransformKind::Associativity
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("associativity", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let uses = parent.use_counts();
        // Values some placed op of their own operator consumes.
        let mut fed_to_same = vec![false; f.num_ops()];
        for (_, u) in placed_ops(f) {
            if let Some((b2, x, y)) = as_bin(f, u) {
                for v in [x, y] {
                    if as_bin(f, v).is_some_and(|(b1, ..)| b1 == b2) {
                        fed_to_same[v.index()] = true;
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (b, op) in placed_ops(f) {
            if !region.covers(b) {
                continue;
            }
            let Some((bin, x, y)) = as_bin(f, op) else {
                continue;
            };
            if !bin.is_associative() {
                continue;
            }
            // Skip non-root ops of a chain (their root will handle them).
            let is_chain_elem =
                |v: OpId| as_bin(f, v).is_some_and(|(b2, ..)| b2 == bin) && uses[v.index()] == 1;
            let used_by_same = fed_to_same[op.index()] && uses[op.index()] == 1;
            if used_by_same {
                continue;
            }
            if !is_chain_elem(x) && !is_chain_elem(y) {
                continue;
            }

            let leaves = Self::leaves(f, op, bin, uses);
            if leaves.len() < 3 {
                continue;
            }

            // Candidate 1: balanced tree.
            out.push(rebuild_tree(f, b, op, bin, &leaves, TreeShape::Balanced));
            // Candidate 2: fully left-skewed chain (sometimes better for
            // pipelined recurrences or when chaining is cheap).
            out.push(rebuild_tree(f, b, op, bin, &leaves, TreeShape::LeftChain));
            // Candidates 3..: for commutative ops, group each pair of
            // leaves first and chain the rest. These are structurally
            // neutral but create the adjacency other patterns need — e.g.
            // grouping `a·b` with `a·c` inside `acc + a·b + a·c` is what
            // lets distributivity factor the multiplier out.
            if bin.is_commutative() && leaves.len() <= 5 {
                for i in 0..leaves.len() {
                    for j in i + 1..leaves.len() {
                        if i == 0 && j == 1 {
                            continue; // identical to the left chain
                        }
                        let mut order = vec![leaves[i], leaves[j]];
                        order.extend(
                            leaves
                                .iter()
                                .enumerate()
                                .filter(|&(k, _)| k != i && k != j)
                                .map(|(_, &v)| v),
                        );
                        out.push(rebuild_tree(f, b, op, bin, &order, TreeShape::LeftChain));
                    }
                }
            }
        }
        out
    }
}

enum TreeShape {
    Balanced,
    LeftChain,
}

/// Rebuilds the associative tree over `leaves` with the requested shape,
/// inserting new ops immediately before `root` and rewriting `root` in
/// place (so existing uses stay valid).
fn rebuild_tree(
    f: &Function,
    block: fact_ir::BlockId,
    root: OpId,
    bin: BinOp,
    leaves: &[OpId],
    shape: TreeShape,
) -> Candidate {
    let mut g = f.clone();
    let mut pos = g
        .position_in_block(block, root)
        .expect("root placed in block");

    // Combine leaves into a tree, returning the top value; all
    // intermediate ops are inserted before `pos`.
    fn combine(
        g: &mut Function,
        block: fact_ir::BlockId,
        pos: &mut usize,
        bin: BinOp,
        values: &[OpId],
        shape: &TreeShape,
    ) -> OpId {
        match values.len() {
            1 => values[0],
            2 => {
                let id = g.insert(block, *pos, Op::new(OpKind::Bin(bin, values[0], values[1])));
                *pos += 1;
                id
            }
            n => match shape {
                TreeShape::Balanced => {
                    let mid = n / 2;
                    let l = combine(g, block, pos, bin, &values[..mid], shape);
                    let r = combine(g, block, pos, bin, &values[mid..], shape);
                    let id = g.insert(block, *pos, Op::new(OpKind::Bin(bin, l, r)));
                    *pos += 1;
                    id
                }
                TreeShape::LeftChain => {
                    let mut acc = values[0];
                    for &v in &values[1..] {
                        acc = g.insert(block, *pos, Op::new(OpKind::Bin(bin, acc, v)));
                        *pos += 1;
                    }
                    acc
                }
            },
        }
    }

    // Build all but the final combine as new ops, then fold the final
    // combine into `root` itself.
    let top = if leaves.len() == 2 {
        // Degenerate; root just gets the two leaves.
        g.op_mut(root).kind = OpKind::Bin(bin, leaves[0], leaves[1]);
        root
    } else {
        match shape {
            TreeShape::Balanced => {
                let mid = leaves.len() / 2;
                let l = combine(&mut g, block, &mut pos, bin, &leaves[..mid], &shape);
                let r = combine(&mut g, block, &mut pos, bin, &leaves[mid..], &shape);
                g.op_mut(root).kind = OpKind::Bin(bin, l, r);
                root
            }
            TreeShape::LeftChain => {
                let l = combine(
                    &mut g,
                    block,
                    &mut pos,
                    bin,
                    &leaves[..leaves.len() - 1],
                    &shape,
                );
                g.op_mut(root).kind = OpKind::Bin(bin, l, leaves[leaves.len() - 1]);
                root
            }
        }
    };
    let _ = top;
    fact_ir::rewrite::eliminate_dead_code(&mut g);
    Candidate {
        kind: TransformKind::Associativity,
        description: format!(
            "re-associate {}-leaf {bin} tree at {root} ({})",
            leaves.len(),
            match shape {
                TreeShape::Balanced => "balanced",
                TreeShape::LeftChain => "chain",
            }
        ),
        function: g,
        map: None,
    }
}

/// Distributivity: `a·b ± a·c → a·(b ± c)` (factoring) and
/// `a·(b ± c) → a·b ± a·c` (expansion).
pub struct Distributivity;

impl Transform for Distributivity {
    fn kind(&self) -> TransformKind {
        TransformKind::Distributivity
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("distributivity", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let uses = parent.use_counts();
        let mut out = Vec::new();
        for (b, op) in placed_ops(f) {
            if !region.covers(b) {
                continue;
            }
            let Some((bin, x, y)) = as_bin(f, op) else {
                continue;
            };
            if !matches!(bin, BinOp::Add | BinOp::Sub) {
                continue;
            }

            // Factoring: x = Mul(a1, a2), y = Mul(c1, c2), single-use,
            // sharing a factor.
            if let (Some((BinOp::Mul, a1, a2)), Some((BinOp::Mul, c1, c2))) =
                (as_bin(f, x), as_bin(f, y))
            {
                if uses[x.index()] == 1 && uses[y.index()] == 1 && x != y {
                    // Find a common factor.
                    let pairs = [
                        (a1, a2, c1, c2),
                        (a1, a2, c2, c1),
                        (a2, a1, c1, c2),
                        (a2, a1, c2, c1),
                    ];
                    for (k, rest_x, k2, rest_y) in pairs {
                        if k == k2 {
                            let mut g = f.clone();
                            let pos = g.position_in_block(b, op).expect("op placed");
                            let inner = g.insert(b, pos, Op::new(OpKind::Bin(bin, rest_x, rest_y)));
                            g.op_mut(op).kind = OpKind::Bin(BinOp::Mul, k, inner);
                            fact_ir::rewrite::eliminate_dead_code(&mut g);
                            out.push(Candidate {
                                kind: TransformKind::Distributivity,
                                description: format!("factor {k} out of {op}"),
                                function: g,
                                map: None,
                            });
                            break;
                        }
                    }
                }
            }

            // The same algebra applies to sums/differences of sums:
            // (y1+y2) - (y3+y4) -> (y1-y3) + (y2-y4), the Example 2
            // rewrite. Pattern: Sub(Add(p,q), Add(r,s)) single-use arms.
            if bin == BinOp::Sub {
                if let (Some((BinOp::Add, p, q)), Some((BinOp::Add, r, s))) =
                    (as_bin(f, x), as_bin(f, y))
                {
                    if uses[x.index()] == 1 && uses[y.index()] == 1 && x != y {
                        let mut g = f.clone();
                        let pos = g.position_in_block(b, op).expect("op placed");
                        let d1 = g.insert(b, pos, Op::new(OpKind::Bin(BinOp::Sub, p, r)));
                        let d2 = g.insert(b, pos + 1, Op::new(OpKind::Bin(BinOp::Sub, q, s)));
                        g.op_mut(op).kind = OpKind::Bin(BinOp::Add, d1, d2);
                        fact_ir::rewrite::eliminate_dead_code(&mut g);
                        out.push(Candidate {
                            kind: TransformKind::Distributivity,
                            description: format!("sum-of-differences rewrite at {op}"),
                            function: g,
                            map: None,
                        });
                    }
                }
            }
        }

        // Expansion: root = Mul(a, s), s = Add/Sub single-use.
        for (b, op) in placed_ops(f) {
            if !region.covers(b) {
                continue;
            }
            let Some((BinOp::Mul, x, y)) = as_bin(f, op) else {
                continue;
            };
            for (a, s) in [(x, y), (y, x)] {
                if let Some((inner_bin @ (BinOp::Add | BinOp::Sub), p, q)) = as_bin(f, s) {
                    if uses[s.index()] == 1 {
                        let mut g = f.clone();
                        let pos = g.position_in_block(b, op).expect("op placed");
                        let m1 = g.insert(b, pos, Op::new(OpKind::Bin(BinOp::Mul, a, p)));
                        let m2 = g.insert(b, pos + 1, Op::new(OpKind::Bin(BinOp::Mul, a, q)));
                        g.op_mut(op).kind = OpKind::Bin(inner_bin, m1, m2);
                        fact_ir::rewrite::eliminate_dead_code(&mut g);
                        out.push(Candidate {
                            kind: TransformKind::Distributivity,
                            description: format!("expand {op} over {inner_bin}"),
                            function: g,
                            map: None,
                        });
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(names: &[&str]) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: -30, hi: 30 }))
            .collect();
        generate(&specs, 80, 31)
    }

    fn check_all(f: &Function, cands: &[Candidate], names: &[&str]) {
        assert!(!cands.is_empty());
        for c in cands {
            verify(&c.function).unwrap_or_else(|e| panic!("{}: {e}", c.description));
            check_equivalence(f, &c.function, &traces(names), 9)
                .unwrap_or_else(|e| panic!("{}: {e}", c.description));
        }
    }

    #[test]
    fn commutativity_swaps_and_preserves() {
        let f = compile("proc f(a, b) { out y = a + b; out z = a < b; }").unwrap();
        let cands = Commutativity.candidates(&f, &Region::whole());
        // The add swaps; the comparison mirrors to >.
        assert_eq!(cands.len(), 2);
        check_all(&f, &cands, &["a", "b"]);
    }

    #[test]
    fn commutativity_skips_sub() {
        let f = compile("proc f(a, b) { out y = a - b; }").unwrap();
        assert!(Commutativity.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn associativity_rebalances_reduction() {
        let f = compile("proc f(a, b, c, d) { out y = a + b + c + d; }").unwrap();
        let cands = Associativity.candidates(&f, &Region::whole());
        assert!(!cands.is_empty());
        check_all(&f, &cands, &["a", "b", "c", "d"]);
        // The balanced candidate must reduce tree height: with 4 leaves,
        // depth 2 instead of 3. Count: same op count (3 adds).
        let balanced = cands
            .iter()
            .find(|c| c.description.contains("balanced"))
            .unwrap();
        assert_eq!(
            balanced.function.op_histogram()["bin"],
            f.op_histogram()["bin"]
        );
    }

    #[test]
    fn associativity_needs_three_leaves() {
        let f = compile("proc f(a, b) { out y = a + b; }").unwrap();
        assert!(Associativity.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn distributivity_factors_common_multiplicand() {
        let f = compile("proc f(a, b, c) { out y = a * b - a * c; }").unwrap();
        let cands = Distributivity.candidates(&f, &Region::whole());
        check_all(&f, &cands, &["a", "b", "c"]);
        // Factored form has one multiply.
        let factored = cands
            .iter()
            .find(|c| c.description.contains("factor"))
            .unwrap();
        let muls = factored
            .function
            .block_ids()
            .flat_map(|b| factored.function.block(b).ops.clone())
            .filter(|&op| matches!(factored.function.op(op).kind, OpKind::Bin(BinOp::Mul, ..)))
            .count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn distributivity_expands_product_of_sum() {
        let f = compile("proc f(a, b, c) { out y = a * (b + c); }").unwrap();
        let cands = Distributivity.candidates(&f, &Region::whole());
        check_all(&f, &cands, &["a", "b", "c"]);
        let expanded = cands
            .iter()
            .find(|c| c.description.contains("expand"))
            .unwrap();
        let muls = expanded
            .function
            .block_ids()
            .flat_map(|b| expanded.function.block(b).ops.clone())
            .filter(|&op| matches!(expanded.function.op(op).kind, OpKind::Bin(BinOp::Mul, ..)))
            .count();
        assert_eq!(muls, 2);
    }

    #[test]
    fn example2_sum_of_differences_rewrite() {
        // The Figure 2(c) rewrite: (y1+y2)-(y3+y4) -> (y1-y3)+(y2-y4).
        let f = compile("proc f(y1, y2, y3, y4) { out y = (y1 + y2) - (y3 + y4); }").unwrap();
        let cands = Distributivity.candidates(&f, &Region::whole());
        check_all(&f, &cands, &["y1", "y2", "y3", "y4"]);
        let sod = cands
            .iter()
            .find(|c| c.description.contains("sum-of-differences"))
            .unwrap();
        // 2 subs + 1 add instead of 2 adds + 1 sub.
        let count = |g: &Function, want: BinOp| {
            g.block_ids()
                .flat_map(|b| g.block(b).ops.clone())
                .filter(|&op| matches!(g.op(op).kind, OpKind::Bin(b2, ..) if b2 == want))
                .count()
        };
        assert_eq!(count(&sod.function, BinOp::Sub), 2);
        assert_eq!(count(&sod.function, BinOp::Add), 1);
    }

    #[test]
    fn region_restriction_excludes_blocks() {
        let f = compile("proc f(a, b) { out y = a + b; }").unwrap();
        let empty_region = Region::of_blocks([fact_ir::BlockId(999)]);
        assert!(Commutativity.candidates(&f, &empty_region).is_empty());
    }

    #[test]
    fn multi_use_subexpression_is_not_factored() {
        // a*b used twice: factoring would change the other use's cost
        // basis, so the pattern requires single use.
        let f =
            compile("proc f(a, b, c) { var t = a * b; out y = t - a * c; out z = t; }").unwrap();
        let cands = Distributivity.candidates(&f, &Region::whole());
        assert!(cands.iter().all(|c| !c.description.contains("factor")));
    }
}

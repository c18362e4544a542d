//! Natural-loop detection.
//!
//! Loops are the unit the scheduler pipelines and the unit the
//! loop-unrolling and concurrent-loop-optimization transformations operate
//! on, so we recover the standard natural-loop structure: back edges found
//! via dominators, bodies collected by backward reachability.

use crate::dom::DomTree;
use crate::func::Function;
use crate::ids::BlockId;
use std::collections::BTreeSet;

/// A natural loop.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the body).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// Edges leaving the loop as `(from_inside, to_outside)` pairs.
    pub exits: Vec<(BlockId, BlockId)>,
    /// Depth in the loop nest (outermost loops have depth 1).
    pub depth: usize,
}

impl NaturalLoop {
    /// Returns `true` if `b` is inside the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }

    /// Whether the loop has a single latch and a single exit edge,
    /// leaving from the header: the loops unrolling copies, and whose
    /// block visits simulation counts by iteration parity.
    pub fn is_simple(&self) -> bool {
        self.latches.len() == 1 && self.exits.len() == 1 && self.exits[0].0 == self.header
    }
}

/// The set of natural loops in a function, outermost-first.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<NaturalLoop>,
    /// Innermost loop containing each block, if any (index into `loops`).
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detects all natural loops of `f`.
    ///
    /// Back edges `latch -> header` are edges whose target dominates their
    /// source. Multiple back edges to one header are merged into a single
    /// loop (shared header ⇒ same loop).
    pub fn compute(f: &Function, dom: &DomTree) -> Self {
        let preds = f.predecessors();
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();

        for b in dom.rpo() {
            for succ in f.block(*b).term.successors() {
                if dom.dominates(succ, *b) {
                    // back edge b -> succ
                    match headers.iter().position(|&h| h == succ) {
                        Some(i) => latches_of[i].push(*b),
                        None => {
                            headers.push(succ);
                            latches_of.push(vec![*b]);
                        }
                    }
                }
            }
        }

        let mut loops = Vec::new();
        for (header, latches) in headers.into_iter().zip(latches_of) {
            let mut body = BTreeSet::new();
            body.insert(header);
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(b) = stack.pop() {
                if dom.rpo_index(b) == usize::MAX {
                    continue; // unreachable preds are not part of the loop
                }
                if body.insert(b) {
                    for &p in &preds[b.index()] {
                        stack.push(p);
                    }
                }
            }
            let mut exits = Vec::new();
            for &b in &body {
                for s in f.block(b).term.successors() {
                    if !body.contains(&s) {
                        exits.push((b, s));
                    }
                }
            }
            loops.push(NaturalLoop {
                header,
                latches,
                body,
                exits,
                depth: 0,
            });
        }

        // Sort outermost-first (bigger bodies first; ties by header id for
        // determinism), then assign nesting depth.
        loops.sort_by(|a, b| {
            b.body
                .len()
                .cmp(&a.body.len())
                .then(a.header.cmp(&b.header))
        });
        let snapshots: Vec<(BlockId, BTreeSet<BlockId>)> =
            loops.iter().map(|l| (l.header, l.body.clone())).collect();
        for (i, l) in loops.iter_mut().enumerate() {
            l.depth = 1 + snapshots
                .iter()
                .enumerate()
                .filter(|(j, (h, body))| *j != i && *h != l.header && body.contains(&l.header))
                .count();
        }

        let mut innermost = vec![None; f.num_blocks()];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.body {
                match innermost[b.index()] {
                    None => innermost[b.index()] = Some(i),
                    Some(j) => {
                        if loops[i].body.len() < loops[j].body.len() {
                            innermost[b.index()] = Some(i);
                        }
                    }
                }
            }
        }

        LoopForest { loops, innermost }
    }

    /// All loops, outermost-first.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_loop(&self, b: BlockId) -> Option<&NaturalLoop> {
        self.innermost[b.index()].map(|i| &self.loops[i])
    }

    /// The loop headed at `header`, if any.
    pub fn loop_with_header(&self, header: BlockId) -> Option<&NaturalLoop> {
        self.loops.iter().find(|l| l.header == header)
    }

    /// The innermost loops: those whose body holds no other loop's
    /// header. They never overlap.
    pub fn innermost(&self) -> impl Iterator<Item = &NaturalLoop> {
        self.loops.iter().filter(|l| {
            !self
                .loops
                .iter()
                .any(|m| m.header != l.header && l.contains(m.header))
        })
    }

    /// Top-level (depth-1) loops.
    pub fn top_level(&self) -> impl Iterator<Item = &NaturalLoop> {
        self.loops.iter().filter(|l| l.depth == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Terminator;

    /// entry -> h; h -> (body | exit); body -> h.
    fn single_loop() -> (Function, [BlockId; 4]) {
        let mut f = Function::new("loop1");
        let entry = f.entry();
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let c = f.emit_input(entry, "c");
        f.set_terminator(entry, Terminator::Jump(h));
        f.set_terminator(
            h,
            Terminator::Branch {
                cond: c,
                on_true: body,
                on_false: exit,
            },
        );
        f.set_terminator(body, Terminator::Jump(h));
        f.set_terminator(exit, Terminator::Return(None));
        (f, [entry, h, body, exit])
    }

    /// Nested: outer header oh -> inner header ih -> inner body -> ih;
    /// ih -> ob -> oh; oh -> exit.
    fn nested_loops() -> (Function, [BlockId; 6]) {
        let mut f = Function::new("loop2");
        let entry = f.entry();
        let oh = f.add_block("oh");
        let ih = f.add_block("ih");
        let ib = f.add_block("ib");
        let ob = f.add_block("ob");
        let exit = f.add_block("exit");
        let c1 = f.emit_input(entry, "c1");
        let c2 = f.emit_input(entry, "c2");
        f.set_terminator(entry, Terminator::Jump(oh));
        f.set_terminator(
            oh,
            Terminator::Branch {
                cond: c1,
                on_true: ih,
                on_false: exit,
            },
        );
        f.set_terminator(
            ih,
            Terminator::Branch {
                cond: c2,
                on_true: ib,
                on_false: ob,
            },
        );
        f.set_terminator(ib, Terminator::Jump(ih));
        f.set_terminator(ob, Terminator::Jump(oh));
        f.set_terminator(exit, Terminator::Return(None));
        (f, [entry, oh, ih, ib, ob, exit])
    }

    #[test]
    fn detects_single_loop() {
        let (f, [_, h, body, exit]) = single_loop();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, h);
        assert_eq!(l.latches, vec![body]);
        assert!(l.contains(h) && l.contains(body));
        assert!(!l.contains(exit));
        assert_eq!(l.exits, vec![(h, exit)]);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn detects_nested_loops_with_depths() {
        let (f, [_, oh, ih, ib, ob, _]) = nested_loops();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops().len(), 2);
        let outer = forest.loop_with_header(oh).unwrap();
        let inner = forest.loop_with_header(ih).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(ih) && outer.contains(ib) && outer.contains(ob));
        assert!(inner.contains(ib));
        assert!(!inner.contains(ob));
        assert_eq!(forest.innermost_loop(ib).unwrap().header, ih);
        assert_eq!(forest.innermost_loop(ob).unwrap().header, oh);
        assert_eq!(forest.top_level().count(), 1);
    }

    #[test]
    fn no_loops_in_dag() {
        let mut f = Function::new("dag");
        let e = f.entry();
        let x = f.add_block("x");
        f.set_terminator(e, Terminator::Jump(x));
        f.set_terminator(x, Terminator::Return(None));
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(forest.loops().is_empty());
        assert!(forest.innermost_loop(x).is_none());
    }

    #[test]
    fn self_loop_block() {
        let mut f = Function::new("selfloop");
        let e = f.entry();
        let s = f.add_block("s");
        let exit = f.add_block("exit");
        let c = f.emit_input(e, "c");
        f.set_terminator(e, Terminator::Jump(s));
        f.set_terminator(
            s,
            Terminator::Branch {
                cond: c,
                on_true: s,
                on_false: exit,
            },
        );
        f.set_terminator(exit, Terminator::Return(None));
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, s);
        assert_eq!(l.latches, vec![s]);
        assert_eq!(l.body.len(), 1);
    }
}

//! Production-vs-oracle tests of the list scheduler.
//!
//! The position-indexed production scheduler (`fact_sched::listsched`)
//! and the memo in front of it must reproduce the `OpId`-keyed oracle in
//! `common/oracle.rs` bit for bit: the same ops issued in the same states
//! in the same order, the same placements (`f64`s compared by bits), and
//! the same `NoInstances`/`ClockTooShort` errors naming the same op.
//! Checked on every block of the §5 suite's two-level transformation
//! neighbourhoods, plain and if-converted, and on generated blocks.

#[path = "common/gen.rs"]
mod gen;
#[path = "common/oracle.rs"]
mod oracle;

use fact_core::suite;
use fact_estim::section5_library;
use fact_ir::{BlockId, Function};
use fact_sched::ifconv::if_convert;
use fact_sched::listsched::{schedule_block, BlockSchedule, SchedError};
use fact_sched::{Allocation, FuLibrary, FuSelection, ScheduleMemo};
use fact_xform::{Region, TransformLibrary};
use oracle::OracleSchedule;

/// Generated problems compared per run.
const CASES: u64 = 4000;

/// Compares one production outcome with the oracle's.
fn same(
    f: &Function,
    b: BlockId,
    prod: Result<&BlockSchedule, &SchedError>,
    want: &Result<OracleSchedule, SchedError>,
) -> Result<(), String> {
    let ops = &f.block(b).ops;
    match (prod, want) {
        (Ok(got), Ok(want)) => {
            let states: Vec<Vec<_>> = got
                .states
                .iter()
                .map(|s| s.iter().map(|&p| ops[p as usize]).collect())
                .collect();
            if states != want.states {
                return Err(format!("states {states:?}, oracle {:?}", want.states));
            }
            if got.placement.len() != ops.len() || want.placement.len() != ops.len() {
                return Err(format!(
                    "{} placements, oracle {}, {} ops",
                    got.placement.len(),
                    want.placement.len(),
                    ops.len()
                ));
            }
            for (i, p) in got.placement.iter().enumerate() {
                let q = &want.placement[&ops[i]];
                let bits = |p: &fact_sched::listsched::OpPlacement| {
                    (
                        p.start_state,
                        p.start_ns.to_bits(),
                        p.end_state,
                        p.ready_ns.to_bits(),
                    )
                };
                if bits(p) != bits(q) {
                    return Err(format!("op {}: placed {p:?}, oracle {q:?}", ops[i]));
                }
            }
            Ok(())
        }
        (Err(e), Err(w)) if e == w => Ok(()),
        (got, want) => Err(format!("got {got:?}, oracle {want:?}")),
    }
}

/// Checks every block of `f` fresh and through `memo`.
fn check_function(
    f: &Function,
    lib: &FuLibrary,
    sel: &FuSelection,
    alloc: &Allocation,
    clk: f64,
    memo: &ScheduleMemo,
) -> Result<usize, String> {
    for b in f.block_ids() {
        let want = oracle::schedule_block(f, b, lib, sel, alloc, clk);
        let fresh = schedule_block(f, b, lib, sel, alloc, clk);
        same(f, b, fresh.as_ref(), &want).map_err(|e| format!("{b} fresh: {e}"))?;
        let (memoized, _) = memo.schedule_block_memoized(f, b, lib, sel, alloc, clk);
        let memoized = memoized.as_ref().map(|s| &**s);
        same(f, b, memoized, &want).map_err(|e| format!("{b} memoized: {e}"))?;
    }
    Ok(f.num_blocks())
}

#[test]
fn generated_blocks_match_the_oracle() {
    // Each problem twice, the second time with shifted ids: the memo
    // answers it from the first, and must rename a cached error's op.
    let memo = ScheduleMemo::default();
    for seed in 0..CASES {
        for pad in [0, 5] {
            let p = gen::problem(seed, pad);
            if let Err(e) = check_function(&p.f, &p.lib, &p.sel, &p.alloc, p.clk, &memo) {
                panic!("seed {seed}, pad {pad}: {e}");
            }
        }
    }
    let (hits, misses) = memo.stats();
    assert!(hits >= misses, "{hits} memo hits for {misses} misses");
}

#[test]
fn suite_neighbourhood_blocks_match_the_oracle() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let clk = fact_sched::SchedOptions::default().clock_ns;
    let mut blocks = 0;
    for bench in suite(&lib) {
        let memo = ScheduleMemo::default();
        let mut level = vec![bench.function.clone()];
        let mut all = level.clone();
        for _ in 0..2 {
            level = level
                .iter()
                .flat_map(|f| tlib.all_candidates(f, &Region::whole()))
                .map(|c| c.function)
                .collect();
            all.extend(level.iter().cloned());
        }
        for (n, f) in all.iter().enumerate() {
            let mut converted = f.clone();
            if_convert(&mut converted);
            for (form, g) in [("plain", f), ("if-converted", &converted)] {
                let Ok(sel) = FuSelection::from_rules(g, &rules) else {
                    continue;
                };
                blocks += check_function(g, &lib, &sel, &bench.allocation, clk, &memo)
                    .unwrap_or_else(|e| panic!("{} candidate {n} ({form}): {e}", bench.name));
            }
        }
    }
    assert!(
        blocks > 10_000,
        "only {blocks} neighbourhood blocks checked"
    );
}

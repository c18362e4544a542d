//! Neighbourhood digests: the exact candidate stream of the expansion
//! step, pinned.
//!
//! The search expands every In_set element through the transformation
//! library (Figure 6, `Identify_and_apply_candidate_transformations`),
//! dedups by [`structural_hash`] and scores the survivors in order. So
//! the trajectory of a run — and every `EvalCache` key a persisted
//! snapshot holds — depends on which candidates come out, in which
//! order, with which descriptions and hashes. This suite folds
//! `(kind, description, structural_hash)` of every candidate into one
//! `u64` per suite benchmark, partition region and library, over the
//! input and every first-level candidate, and compares it with the
//! value the expansion code produced when the digests were pinned.
//!
//! A mismatch means the expansion changed observably. If the change is
//! intended, the new digests are printed in the failure message; pin
//! them and say why in the change description.

use fact_core::{partition, region_of_block, structural_hash, suite, FactConfig};
use fact_estim::{markov_of, section5_library};
use fact_ir::Function;
use fact_sched::schedule;
use fact_sim::profile;
use fact_xform::{Region, TransformLibrary};

/// One step of the fold (splitmix64 finalizer over `h ^ x`).
fn fold(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = fold(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(w));
    }
    h
}

/// Folds the candidates of `f` in `region` into `h`, returning the new
/// digest and the candidate functions (for the second level).
fn expand(h: u64, lib: &TransformLibrary, f: &Function, region: &Region) -> (u64, Vec<Function>) {
    let cands = lib.all_candidates(f, region);
    let mut h = fold(h, cands.len() as u64);
    let mut next = Vec::with_capacity(cands.len());
    for c in cands {
        h = fold_bytes(h, c.kind.to_string().as_bytes());
        h = fold_bytes(h, c.description.as_bytes());
        h = fold(h, structural_hash(&c.function));
        next.push(c.function);
    }
    (h, next)
}

/// The digest of `f`'s candidates and of each candidate's own
/// candidates, with the number of functions expanded.
fn two_levels(lib: &TransformLibrary, f: &Function, region: &Region) -> (u64, usize) {
    let (mut h, first) = expand(0x00D1_6E57, lib, f, region);
    for g in &first {
        h = expand(h, lib, g, region).0;
    }
    (h, first.len() + 1)
}

/// The digest of every benchmark × region (partition regions, then the
/// whole function) for `lib`, as
/// `(benchmark, region index, digest, candidates expanded)`.
fn digests(lib: &TransformLibrary) -> Vec<(&'static str, usize, u64, usize)> {
    let (fus, rules) = section5_library();
    let config = FactConfig::default();
    let mut out = Vec::new();
    for b in suite(&fus) {
        let f = &b.function;
        let sr0 = schedule(
            f,
            &fus,
            &rules,
            &b.allocation,
            &profile(f, &b.traces),
            &config.sched,
        )
        .expect("baseline schedules");
        let markov0 = markov_of(&sr0).expect("baseline analyzes");
        let blocks = partition(&sr0.stg, &markov0, &config.partition);
        let regions: Vec<Region> = if blocks.is_empty() {
            vec![Region::whole()]
        } else {
            blocks
                .iter()
                .take(config.max_blocks)
                .map(|blk| region_of_block(f, &sr0, blk))
                .collect()
        };
        // The whole function last: the search visits it when the
        // partition finds no hot block, and it is where the loop
        // transformations and CSE reach every site.
        let whole = std::iter::once(Region::whole());
        for (ri, region) in regions.iter().cloned().chain(whole).enumerate() {
            let (h, expanded) = two_levels(lib, f, &region);
            out.push((b.name, ri, h, expanded));
        }
    }
    out
}

/// Programs the suite's regions leave the extension transforms nothing
/// to do on: a fissionable loop, a repeated subexpression, a
/// loop-invariant product, and the §2 walkthrough.
const FIXTURES: &[(&str, &str)] = &[
    ("TEST1", fact_core::suite::TEST1_SRC),
    (
        "fused",
        "proc fused(n, a, b) { array x[128]; array y[128]; var i = 0; \
         while (i < n) { x[i] = (a * i) * 3; y[i] = b + i + b; i = i + 1; } }",
    ),
    (
        "dup",
        "proc dup(n, a, b) { var s = 0; var i = 0; \
         while (i < n) { s = s + (a * b) + (a * b); i = i + 1; } out s = s; }",
    ),
    (
        "hoist",
        "proc hoist(n, a, b) { var s = 0; var i = 0; \
         while (i < n) { s = s + a * b + i * 2 + 0; i = i + 1; } out s = s + 8 * 1; }",
    ),
];

/// The digest of every fixture over the whole function, as
/// `(fixture, 0, digest, candidates expanded)`.
fn fixture_digests(lib: &TransformLibrary) -> Vec<(&'static str, usize, u64, usize)> {
    FIXTURES
        .iter()
        .map(|&(name, src)| {
            let f = fact_lang::compile(src).expect("fixture compiles");
            let (h, expanded) = two_levels(lib, &f, &Region::whole());
            (name, 0, h, expanded)
        })
        .collect()
}

fn check(name: &str, lib: &TransformLibrary, pinned: &[(&str, usize, u64)]) {
    let mut got = digests(lib);
    got.extend(fixture_digests(lib));
    let rendered: Vec<String> = got
        .iter()
        .map(|(b, r, h, _)| format!("(\"{b}\", {r}, 0x{h:016X}),"))
        .collect();
    let got_pins: Vec<(&str, usize, u64)> = got.iter().map(|&(b, r, h, _)| (b, r, h)).collect();
    assert_eq!(
        got_pins,
        pinned,
        "the {name} library's neighbourhoods changed; new digests:\n{}",
        rendered.join("\n")
    );
    // Every benchmark actually expanded something.
    assert!(got.iter().all(|&(_, _, _, n)| n > 1), "{got:?}");
}

#[test]
fn full_library_neighbourhoods_are_pinned() {
    check("full", &TransformLibrary::full(), FULL);
}

#[test]
fn extended_library_neighbourhoods_are_pinned() {
    check("extended", &TransformLibrary::extended(), EXTENDED);
}

const FULL: &[(&str, usize, u64)] = &[
    ("GCD", 0, 0x0D5A1C65A7B4D2C9),
    ("GCD", 1, 0xCFC556E21C2C199B),
    ("FIR", 0, 0x7366750F54AD01DC),
    ("FIR", 1, 0x5EC0B78567C15098),
    ("Test2", 0, 0x55B138BD87AB1813),
    ("Test2", 1, 0x63E31759DD95EFF7),
    ("Test2", 2, 0x77BBBF762CEEF060),
    ("Test2", 3, 0xE0CDF8667191BA49),
    ("SINTRAN", 0, 0xA21D7D6BF4A096B9),
    ("SINTRAN", 1, 0xFEB0218D7CFE640C),
    ("IGF", 0, 0x007B289F48934B17),
    ("IGF", 1, 0xE5E7E1729B8954B2),
    ("PPS", 0, 0x6F1070BADCDC4086),
    ("PPS", 1, 0x6F1070BADCDC4086),
    ("TEST1", 0, 0x497DE3513178EEA8),
    ("fused", 0, 0x068491BAB2C3F7E2),
    ("dup", 0, 0xD520FAB8B4B6AFFE),
    ("hoist", 0, 0x84ABD1AF320B484B),
];

const EXTENDED: &[(&str, usize, u64)] = &[
    ("GCD", 0, 0x0D5A1C65A7B4D2C9),
    ("GCD", 1, 0xCFC556E21C2C199B),
    ("FIR", 0, 0x7366750F54AD01DC),
    ("FIR", 1, 0x5EC0B78567C15098),
    ("Test2", 0, 0x55B138BD87AB1813),
    ("Test2", 1, 0x63E31759DD95EFF7),
    ("Test2", 2, 0x77BBBF762CEEF060),
    ("Test2", 3, 0xE0CDF8667191BA49),
    ("SINTRAN", 0, 0xA21D7D6BF4A096B9),
    ("SINTRAN", 1, 0xFEB0218D7CFE640C),
    ("IGF", 0, 0x007B289F48934B17),
    ("IGF", 1, 0xE5E7E1729B8954B2),
    ("PPS", 0, 0x6F1070BADCDC4086),
    ("PPS", 1, 0x6F1070BADCDC4086),
    ("TEST1", 0, 0x497DE3513178EEA8),
    ("fused", 0, 0xB97CBA4AD667972D),
    ("dup", 0, 0xD8D7A05DA95BC078),
    ("hoist", 0, 0xA45CFDF184A70790),
];

//! The winner oracle: a job's optimized design must behave like its input
//! under the IR interpreter, on vectors and memory images the search
//! never saw.

use fact_ir::Function;
use fact_prng::rngs::StdRng;
use fact_prng::{mix64, Rng, SeedableRng};
use fact_sim::{execute_with, generate, ExecConfig, InputSpec};

/// Held-out vectors per checked winner.
pub const HELD_OUT: usize = 8;

/// Runs `original` and `winner` through `fact_sim::execute_with` on
/// [`HELD_OUT`] vectors drawn from `specs` with a seed derived from
/// `seed` (so the search's own traces are not reused), each vector with
/// one shared random image of every memory. Outputs, return value and
/// final memories must agree; a vector on which both fail the same way is
/// skipped, as the equivalence checker does. Returns the vectors compared.
pub fn check_winner(
    original: &Function,
    winner: &Function,
    specs: &[(String, InputSpec)],
    seed: u64,
) -> Result<usize, String> {
    let held_out_seed = mix64(seed ^ 0x4E1D_0075_EED5) >> 2;
    let vectors = generate(specs, HELD_OUT, held_out_seed);
    let mut rng = StdRng::seed_from_u64(held_out_seed);
    let mut compared = 0;
    for (i, v) in vectors.vectors.iter().enumerate() {
        let config = ExecConfig {
            initial_memories: original
                .memories()
                .enumerate()
                .map(|(k, (_, m))| {
                    (
                        k,
                        (0..m.size).map(|_| rng.gen_range(-100i64..100)).collect(),
                    )
                })
                .collect(),
            ..ExecConfig::default()
        };
        let a = execute_with(original, v, &config);
        let b = execute_with(winner, v, &config);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if a.outputs != b.outputs || a.returned != b.returned || a.memories != b.memories {
                    return Err(format!(
                        "held-out vector {i}: original gives {:?}, winner gives {:?}",
                        a.outputs, b.outputs
                    ));
                }
                compared += 1;
            }
            (Err(a), Err(b)) if a == b => {}
            (a, b) => {
                return Err(format!(
                    "held-out vector {i}: original {:?}, winner {:?}",
                    a.map(|r| r.outputs),
                    b.map(|r| r.outputs)
                ))
            }
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_core::suite::{input_specs, GCD_SRC};

    #[test]
    fn accepts_the_input_itself() {
        let f = fact_lang::compile(GCD_SRC).unwrap();
        let specs = input_specs("GCD").unwrap();
        assert_eq!(check_winner(&f, &f, &specs, 1), Ok(HELD_OUT));
    }

    #[test]
    fn rejects_a_wrong_winner() {
        let f = fact_lang::compile(GCD_SRC).unwrap();
        let wrong = fact_lang::compile(&GCD_SRC.replace("out g = a;", "out g = a + 1;")).unwrap();
        let specs = input_specs("GCD").unwrap();
        let err = check_winner(&f, &wrong, &specs, 1).unwrap_err();
        assert!(err.contains("held-out vector 0"), "{err}");
    }
}

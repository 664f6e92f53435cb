//! Differential test for the incremental DPLL(T) oracle.
//!
//! The incremental oracle (persistent per-clause contexts, activation
//! literals, the trivial-head skip) must be observationally equivalent to
//! the fresh rebuild-per-check oracle: on every instance both modes
//! finish, they must produce the same `SolveResult` classification,
//! and each answer must validate independently (interpretations are
//! re-checked clause by clause, counterexamples replayed concretely).

use linarb_smt::Budget;
use linarb_solver::{
    verify_interpretation, CegarSolver, OracleMode, SolveResult, SolverConfig,
};
use linarb_suite::{Benchmark, Category, Expected};
use std::time::Duration;

fn budget() -> Budget {
    Budget::timeout(Duration::from_secs(120))
}

/// Instances on which both oracle modes converge comfortably inside
/// the test budget, covering sat and unsat outcomes, linear loops,
/// recursion, and multi-predicate systems.
fn converging_suite() -> Vec<Benchmark> {
    vec![
        linarb_suite::fig1(),
        linarb_suite::program_a(),
        linarb_suite::program_c_fibo(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::half_counter(),
        linarb_suite::cggmp2005(),
        trivially_safe(),
        trivially_unsafe(),
    ]
}

fn trivially_safe() -> Benchmark {
    Benchmark::from_chc(
        "trivially_safe",
        Category::Paper,
        Expected::Safe,
        r#"
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 1) (p x))))
        (assert (forall ((x Int)) (=> (and (p x) (< x 0)) false)))
        "#,
    )
}

fn trivially_unsafe() -> Benchmark {
    Benchmark::from_chc(
        "trivially_unsafe",
        Category::Paper,
        Expected::Unsafe,
        r#"
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 1) (p x))))
        (assert (forall ((x Int)) (=> (and (p x) (> x 0)) false)))
        "#,
    )
}

fn classify(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat(_) => "unsat",
        SolveResult::Unknown(_) => "unknown",
    }
}

#[test]
fn incremental_matches_fresh_classification() {
    for bench in converging_suite() {
        let mut fresh = CegarSolver::new(
            &bench.system,
            SolverConfig::default().with_oracle(OracleMode::Fresh),
        );
        let rf = fresh.solve(&budget());
        let mut inc = CegarSolver::new(
            &bench.system,
            SolverConfig::default().with_oracle(OracleMode::Incremental),
        );
        let ri = inc.solve(&budget());

        assert_eq!(
            classify(&rf),
            classify(&ri),
            "{}: oracle modes disagree (fresh={rf:?} incremental={ri:?})",
            bench.name
        );

        // Both answers must hold up to independent validation — mere
        // agreement could still hide a shared wrong answer.
        for (mode, r) in [("fresh", &rf), ("incremental", &ri)] {
            match r {
                SolveResult::Sat(interp) => {
                    assert_eq!(
                        bench.expected,
                        Expected::Safe,
                        "{} [{mode}]: sat on unsafe instance",
                        bench.name
                    );
                    assert_eq!(
                        verify_interpretation(&bench.system, interp, &budget()),
                        Some(true),
                        "{} [{mode}]: interpretation must validate",
                        bench.name
                    );
                }
                SolveResult::Unsat(tree) => {
                    assert_eq!(
                        bench.expected,
                        Expected::Unsafe,
                        "{} [{mode}]: unsat on safe instance",
                        bench.name
                    );
                    assert!(
                        tree.replay(&bench.system),
                        "{} [{mode}]: cex must replay",
                        bench.name
                    );
                }
                SolveResult::Unknown(reason) => {
                    panic!("{} [{mode}]: did not converge: {reason:?}", bench.name)
                }
            }
        }

        // The incremental mode must actually exercise its machinery:
        // persistent contexts make repeat encodings cache hits, and
        // the trivial-head skip fires on anything beyond a couple of
        // iterations.
        let stats = inc.stats();
        if stats.iterations > 2 {
            assert!(
                stats.ctx_reuse_hits > 0 || stats.smt_checks_skipped > 0,
                "{}: incremental ran but reused nothing (stats: {stats:?})",
                bench.name
            );
        }
    }
}

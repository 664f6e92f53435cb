//! Trajectory pins: the refinement trajectory of every fast perf-smoke
//! program, in both oracle modes, checked against a recorded table.
//!
//! A CEGAR solve is one deterministic sequential loop, so a change that
//! does not mean to alter solver behaviour (a refactor, a deleted fast
//! path that never fires) must leave every row exactly as it is. A
//! change that alters the trajectory on purpose re-records the table
//! (the failure message prints the observed rows) and says why.
//!
//! Each program runs under `SolverConfig::default()` with two settings
//! pinned: seeding stays on even under `LINARB_NO_SEED=1`, and no
//! harvested seed atoms are injected (perf_smoke's Farkas harvest is
//! not deterministic). Incremental `program_a` and `program_a_chc` are
//! left out: each takes seconds where the rest take well under one.

use linarb_smt::Budget;
use linarb_solver::{CegarSolver, OracleMode, SolveResult, SolverConfig};
use std::time::Duration;

/// `(verdict, iterations, smt_checks, smt_checks_skipped,
/// ctx_reuse_hits, samples, seeded_atoms, seed_hits)`.
type Row = (&'static str, usize, usize, usize, usize, usize, usize, u64);

#[rustfmt::skip]
const PINS: &[(OracleMode, &str, Row)] = &[
    (OracleMode::Incremental, "fig1",           ("sat",    76,  76,  3,  23, 15,  1,   50)),
    (OracleMode::Incremental, "program_c_fibo", ("sat",    40,  40,  8,   7,  7,  4,    6)),
    (OracleMode::Incremental, "fibo_unsafe",    ("unsat",  21,  21,  6,   0,  4,  4,    4)),
    (OracleMode::Incremental, "even_odd",       ("sat",    50,  50,  6,   3, 12,  4,   47)),
    (OracleMode::Incremental, "cggmp2005",      ("sat",   105, 105,  3,  10, 44,  4,  132)),
    (OracleMode::Incremental, "jm2006",         ("sat",   200, 200, 10,  22, 18, 22,  393)),
    (OracleMode::Incremental, "hhk2008",        ("sat",    95,  95,  6,  14, 16, 16,   77)),
    (OracleMode::Incremental, "invgen_sum",     ("sat",    18,  18,  3,   3,  7,  9,    3)),
    (OracleMode::Incremental, "half_counter",   ("sat",    14,  14,  5,   1,  2,  9,    1)),
    (OracleMode::Fresh,       "fig1",           ("sat",    86,  86,  0,   0, 13,  1,   75)),
    (OracleMode::Fresh,       "program_a",      ("sat",   235, 235,  0,   0, 32,  4,  329)),
    (OracleMode::Fresh,       "program_a_chc",  ("sat",   233, 233,  0,   0, 32,  4,  317)),
    (OracleMode::Fresh,       "program_c_fibo", ("sat",    41,  41,  0,   0,  7,  4,    7)),
    (OracleMode::Fresh,       "fibo_unsafe",    ("unsat",  21,  21,  0,   0,  4,  4,    4)),
    (OracleMode::Fresh,       "even_odd",       ("sat",    25,  25,  0,   0,  7,  4,   10)),
    (OracleMode::Fresh,       "cggmp2005",      ("sat",   103, 103,  0,   0, 42,  4,  122)),
    (OracleMode::Fresh,       "jm2006",         ("sat",   264, 264,  0,   0, 28, 22,  508)),
    (OracleMode::Fresh,       "hhk2008",        ("sat",    73,  73,  0,   0, 14, 16,   51)),
    (OracleMode::Fresh,       "invgen_sum",     ("sat",    18,  18,  0,   0,  7,  9,    3)),
    (OracleMode::Fresh,       "half_counter",   ("sat",    14,  14,  0,   0,  2,  9,    1)),
];

fn observe(bench: &linarb_suite::Benchmark, mode: OracleMode) -> Row {
    let config = SolverConfig::default().with_oracle(mode).with_seeding(true);
    let mut solver = CegarSolver::new(&bench.system, config);
    let verdict = match solver.solve(&Budget::timeout(Duration::from_secs(300))) {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat(_) => "unsat",
        SolveResult::Unknown(_) => "unknown",
    };
    let s = solver.stats();
    (
        verdict,
        s.iterations,
        s.smt_checks,
        s.smt_checks_skipped,
        s.ctx_reuse_hits,
        s.samples,
        s.seeded_atoms,
        s.seed_hits,
    )
}

#[test]
fn smoke_trajectories_match_the_recorded_table() {
    let suite = linarb_bench::smoke_suite();
    let observed: Vec<(OracleMode, &str, Row)> = PINS
        .iter()
        .map(|&(mode, name, _)| {
            let bench = suite
                .iter()
                .find(|b| b.name == name)
                .expect("every pinned program is in the perf-smoke suite");
            (mode, name, observe(bench, mode))
        })
        .collect();
    let table: String = observed
        .iter()
        .map(|(m, n, r)| format!("    ({m:?}, {n:?}, {r:?}),\n"))
        .collect();
    assert!(
        observed == PINS,
        "trajectories differ from the recorded table; observed rows:\n{table}"
    );
}

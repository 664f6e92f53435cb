//! Evaluation runner shared by the paper-table benches and the
//! integration tests: runs any engine on any benchmark under a
//! wall-clock budget and scores the verdict against ground truth.

pub mod compare;

use linarb_portfolio::{solve_portfolio, EngineKind, EngineVerdict, PortfolioConfig};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
use linarb_suite::{Benchmark, Expected};
use std::time::{Duration, Instant};

/// The engines compared in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The paper's tool: Algorithm 3 with the ML toolchain.
    LinArb,
    /// Ablation: decision-tree layer disabled (§6).
    LinArbNoDt,
    /// PIE-style enumeration learner in the same CEGAR loop.
    Pie,
    /// DIG-style template learner in the same CEGAR loop.
    Dig,
    /// PDR without must summaries (GPDR \[17\]).
    Gpdr,
    /// PDR with must summaries (Spacer \[19\]).
    Spacer,
    /// Batch unwinding interpolation (Duality \[24, 25\]).
    Duality,
    /// Trace-by-trace interpolation (UAutomizer \[16\]).
    UAutomizer,
    /// The portfolio driver racing all of the above (plus BMC); first
    /// checkable certificate wins. Race width comes from
    /// `LINARB_THREADS` via [`PortfolioConfig::from_env`] (default 1 =
    /// sequential time slicing).
    Portfolio,
}

impl Engine {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Engine::LinArb => "LinearArbitrary",
            Engine::LinArbNoDt => "LinearArbitrary(noDT)",
            Engine::Pie => "PIE",
            Engine::Dig => "DIG",
            Engine::Gpdr => "GPDR",
            Engine::Spacer => "Spacer",
            Engine::Duality => "Duality",
            Engine::UAutomizer => "UAutomizer",
            Engine::Portfolio => "Portfolio",
        }
    }

    /// The portfolio engine this bench engine maps to; `None` for the
    /// full portfolio race itself.
    pub fn kind(self) -> Option<EngineKind> {
        match self {
            Engine::LinArb => Some(EngineKind::Cegar),
            Engine::LinArbNoDt => Some(EngineKind::CegarNoDt),
            Engine::Pie => Some(EngineKind::Pie),
            Engine::Dig => Some(EngineKind::Dig),
            Engine::Gpdr => Some(EngineKind::Gpdr),
            Engine::Spacer => Some(EngineKind::Spacer),
            Engine::Duality => Some(EngineKind::Duality),
            Engine::UAutomizer => Some(EngineKind::UAutomizer),
            Engine::Portfolio => None,
        }
    }
}

/// Normalized verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// System satisfiable / program safe.
    Safe,
    /// System unsatisfiable / program unsafe.
    Unsafe,
    /// No answer within budget.
    Unknown,
}

/// Result of one engine × benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock time spent.
    pub time: Duration,
    /// `Some(true)` if the verdict matches ground truth, `Some(false)`
    /// if it *contradicts* it (a soundness bug!), `None` for unknown.
    pub correct: Option<bool>,
}

impl RunOutcome {
    /// Did the engine produce the right definite verdict?
    pub fn solved(&self) -> bool {
        self.correct == Some(true)
    }
}

/// Runs `engine` on `bench` under `timeout`. Dispatch goes through the
/// portfolio crate's single-engine runner (one construction site for
/// every engine's configuration); `Engine::Portfolio` races the
/// default engine set.
pub fn run_engine(engine: Engine, bench: &Benchmark, timeout: Duration) -> RunOutcome {
    let budget = Budget::timeout(timeout);
    let pconfig = PortfolioConfig::from_env();
    let start = Instant::now();
    let verdict = match engine.kind() {
        Some(kind) => match linarb_portfolio::run_engine(
            kind,
            &bench.system,
            &budget,
            None,
            pconfig.bmc_max_depth,
        ) {
            EngineVerdict::Sat(_) => Verdict::Safe,
            EngineVerdict::Unsat(_) => Verdict::Unsafe,
            EngineVerdict::Unknown(_) => Verdict::Unknown,
        },
        None => match solve_portfolio(&bench.system, &pconfig, &budget).verdict {
            EngineVerdict::Sat(_) => Verdict::Safe,
            EngineVerdict::Unsat(_) => Verdict::Unsafe,
            EngineVerdict::Unknown(_) => Verdict::Unknown,
        },
    };
    let time = start.elapsed();
    let correct = match verdict {
        Verdict::Unknown => None,
        Verdict::Safe => Some(bench.expected == Expected::Safe),
        Verdict::Unsafe => Some(bench.expected == Expected::Unsafe),
    };
    RunOutcome { verdict, time, correct }
}

/// Aggregate of a suite run for one engine.
#[derive(Clone, Debug, Default)]
pub struct SuiteSummary {
    /// Benchmarks attempted.
    pub total: usize,
    /// Correct definite verdicts.
    pub solved: usize,
    /// Verdicts contradicting ground truth (must stay 0).
    pub wrong: usize,
    /// Total time over solved instances.
    pub time_solved: Duration,
}

impl SuiteSummary {
    /// Mean time per solved instance.
    pub fn mean_time_solved(&self) -> Duration {
        if self.solved == 0 {
            Duration::ZERO
        } else {
            self.time_solved / self.solved as u32
        }
    }
}

/// Runs an engine over a suite, returning per-benchmark outcomes and
/// the summary.
pub fn run_suite(
    engine: Engine,
    suite: &[Benchmark],
    timeout: Duration,
) -> (Vec<RunOutcome>, SuiteSummary) {
    let mut outcomes = Vec::new();
    let mut summary = SuiteSummary { total: suite.len(), ..SuiteSummary::default() };
    for bench in suite {
        let out = run_engine(engine, bench, timeout);
        if out.solved() {
            summary.solved += 1;
            summary.time_solved += out.time;
        } else if out.correct == Some(false) {
            summary.wrong += 1;
        }
        outcomes.push(out);
    }
    (outcomes, summary)
}

/// Reads an env var with a default (bench knobs).
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default per-benchmark timeout for table generation
/// (`LINARB_TIMEOUT_MS`, default 2000 ms; the paper used 180 s on
/// full-size suites).
pub fn default_timeout() -> Duration {
    Duration::from_millis(env_or("LINARB_TIMEOUT_MS", 2000))
}

/// The perf-smoke selection: loop invariants needing many refinements
/// (fig1, program_a, jm2006, hhk2008), recursion (fibo, even_odd), an
/// unsat instance (fibo_unsafe), and quick sanity cases. `program_a`
/// appears in both its mini-C form and the paper's CHC-direct form —
/// the two encodings stress the oracle quite differently.
pub fn smoke_suite() -> Vec<Benchmark> {
    let program_a_chc = Benchmark::from_chc(
        "program_a_chc",
        linarb_suite::Category::Paper,
        Expected::Safe,
        r#"
        (declare-fun inv (Int Int) Bool)
        (assert (forall ((x Int) (y Int)) (=> (= x 0) (inv x y))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (inv x y) (distinct y 0)
                     (or (and (< y 0) (= x1 (- x 1)) (= y1 (+ y 1)))
                         (and (>= y 0) (= x1 (+ x 1)) (= y1 (- y 1)))))
                (inv x1 y1))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (inv x y) (distinct y 0)
                     (or (and (< y 0) (= x1 (- x 1)) (= y1 (+ y 1)))
                         (and (>= y 0) (= x1 (+ x 1)) (= y1 (- y 1))))
                     (distinct y1 0))
                (distinct x1 0))))
        "#,
    );
    vec![
        linarb_suite::fig1(),
        linarb_suite::program_a(),
        program_a_chc,
        linarb_suite::program_c_fibo(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::cggmp2005(),
        linarb_suite::jm2006(),
        linarb_suite::hhk2008(),
        linarb_suite::invgen_sum(),
        linarb_suite::half_counter(),
    ]
}

/// Subsamples a suite deterministically to at most `n` entries,
/// keeping the category mix (every k-th element).
pub fn subsample(suite: Vec<Benchmark>, n: usize) -> Vec<Benchmark> {
    if suite.len() <= n || n == 0 {
        return suite;
    }
    let step = suite.len() as f64 / n as f64;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0.0;
    while (idx as usize) < suite.len() && out.len() < n {
        out.push(suite[idx as usize].clone());
        idx += step;
    }
    out
}

/// One row of the paper's characterization tables
/// (`#L`, `#C`, `#P`, `#V`, `#S`, `#A`, `T`).
#[derive(Clone, Debug)]
pub struct CharRow {
    /// Benchmark name.
    pub name: String,
    /// Source lines.
    pub lines: usize,
    /// Clauses.
    pub clauses: usize,
    /// Unknown predicates.
    pub preds: usize,
    /// Variables.
    pub vars: usize,
    /// Samples drawn.
    pub samples: usize,
    /// Conjuncts per disjunct of the most complex interpretation.
    pub shape: Vec<usize>,
    /// Wall-clock time.
    pub time: Duration,
    /// Verdict reached.
    pub verdict: Verdict,
}

/// Runs `LinearArbitrary` on a benchmark and extracts the paper's
/// per-benchmark statistics row.
pub fn characterize(bench: &Benchmark, timeout: Duration) -> CharRow {
    let budget = Budget::timeout(timeout);
    let mut solver = CegarSolver::new(&bench.system, SolverConfig::default());
    let start = Instant::now();
    let result = solver.solve(&budget);
    let time = start.elapsed();
    let verdict = match result {
        SolveResult::Sat(_) => Verdict::Safe,
        SolveResult::Unsat(_) => Verdict::Unsafe,
        SolveResult::Unknown(_) => Verdict::Unknown,
    };
    let (lines, clauses, preds, vars) = bench.stats();
    let shape = solver
        .interpretation_shape()
        .into_values()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    CharRow {
        name: bench.name.clone(),
        lines,
        clauses,
        preds,
        vars,
        samples: solver.stats().samples,
        shape,
        time,
        verdict,
    }
}

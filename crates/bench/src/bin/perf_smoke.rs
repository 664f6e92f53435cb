//! Perf smoke test for the incremental CEGAR oracle.
//!
//! Runs a fixed benchmark selection twice — once with the fresh
//! (rebuild-per-check) oracle and once with the incremental one — and
//! emits a `BENCH_<n>.json` report in the repository root with wall
//! times and oracle statistics per mode. Definite verdicts must never
//! contradict each other; a sat/unsat disagreement is a hard failure
//! (one mode timing out where the other solves is a perf difference,
//! not a soundness one).
//!
//! Phase accounting is checked as an invariant: breakdown components
//! must sum to no more than their parent phase, and phases must sum to
//! no more than the mode's wall time. Seed-harvest
//! time runs *before* the solve wall clock starts and is therefore
//! reported per mode as a separate `seed_harvest_s` alongside
//! `wall_s`, never inside `learner_breakdown`.
//!
//! Knobs: `LINARB_SMOKE_TIMEOUT_MS` (per-benchmark budget, default
//! 60000) and `LINARB_SMOKE_OUT_DIR` (report directory, default `.`).
//! When `LINARB_SMOKE_BASELINE` names an earlier `BENCH_<n>.json`, the
//! run additionally asserts that wall time has not regressed past
//! `LINARB_SMOKE_TOLERANCE` (a factor, default 1.25) of the baseline —
//! the tracing layer's disabled-overhead guard.
//!
//! Regression gate: `perf_smoke --compare BENCH_<prev>.json` runs the
//! suite, then diffs the new report against the previous one with
//! [`linarb_bench::compare`], writes `BENCH_DIFF.md` next to the
//! report, and exits nonzero on a solved-count regression or a gated
//! wall regression. `--compare-only <prev> <cur>` diffs two existing
//! reports without running anything (the CI negative test injects a
//! synthetic slowdown into `<cur>` via `LINARB_SMOKE_INJECT_SLOWDOWN`
//! and asserts the gate trips). `LINARB_SMOKE_WALL_TOLERANCE` overrides
//! the gate factor (default 1.25).
//!
//! Built with `--features count-alloc`, the binary installs the
//! allocation-counting global allocator from `linarb-trace` and the
//! report's per-mode `alloc` sections carry real byte counts;
//! otherwise they read `"enabled": false`.

use linarb_baselines::{InterpConfig, UnwindInterp};
use linarb_bench::compare::{compare, BenchReport, CompareOptions};
use linarb_bench::env_or;
use linarb_portfolio::{solve_portfolio, PortfolioConfig};
use linarb_serve::replay::{run_replay, ReplayConfig};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, OracleMode, SolveResult, SolverConfig};
use linarb_suite::{even_odd, fibo_unsafe, fig1, program_a, program_c_fibo};
use linarb_trace::alloc::{self, AllocStats};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: linarb_trace::alloc::CountingAlloc = linarb_trace::alloc::CountingAlloc;

struct ModeRun {
    verdicts: Vec<&'static str>,
    wall: Duration,
    smt_checks: usize,
    smt_checks_skipped: usize,
    ctx_reuse_hits: usize,
    learned_clauses: usize,
    per_bench: Vec<(String, Duration, &'static str)>,
    /// Per-phase span totals (seconds) over the whole mode run, from
    /// the metrics layer: where oracle time ends and learner time
    /// begins.
    oracle_s: f64,
    learner_s: f64,
    sample_extraction_s: f64,
    /// Oracle-phase breakdown: what the SMT engine did with its time
    /// (warm-start pivots, theory frame pops, clause-DB maintenance).
    simplex_pivots: u64,
    theory_backtracks: u64,
    db_reductions: u64,
    learned_db_size: usize,
    /// Learner-phase breakdown: where `core.learner` time goes (SVM
    /// iterations, decision-tree construction, rationalization) and
    /// how much work symbolic seeding displaced.
    svm_s: f64,
    dtree_s: f64,
    rationalize_s: f64,
    /// Seed-harvest wall time. Runs *before* each benchmark's solve
    /// clock starts, so it is outside `wall` and outside the learner
    /// phase — a sibling of `wall`, not a breakdown component.
    seed_harvest_s: f64,
    seeded_atoms: usize,
    seed_hits: u64,
    seeds_pruned: usize,
    learn_memo_hits: usize,
    /// Allocation counters over the mode run (all-zero / disabled
    /// unless built with `count-alloc`).
    alloc: AllocStats,
}

fn run_mode(mode: OracleMode, suite: &[linarb_suite::Benchmark], timeout: Duration) -> ModeRun {
    let mut run = ModeRun {
        verdicts: Vec::new(),
        wall: Duration::ZERO,
        smt_checks: 0,
        smt_checks_skipped: 0,
        ctx_reuse_hits: 0,
        learned_clauses: 0,
        per_bench: Vec::new(),
        oracle_s: 0.0,
        learner_s: 0.0,
        sample_extraction_s: 0.0,
        simplex_pivots: 0,
        theory_backtracks: 0,
        db_reductions: 0,
        learned_db_size: 0,
        svm_s: 0.0,
        dtree_s: 0.0,
        rationalize_s: 0.0,
        seed_harvest_s: 0.0,
        seeded_atoms: 0,
        seed_hits: 0,
        seeds_pruned: 0,
        learn_memo_hits: 0,
        alloc: AllocStats::default(),
    };
    let alloc_before = alloc::stats();
    alloc::reset_peak();
    let scope = linarb_trace::MetricsScope::new();
    for b in suite {
        // Symbolic seeding: a cheap bounded-unwinding interpolation
        // pass donates its Farkas hyperplanes as candidate atoms. The
        // budget is conflict-limited, not wall-clock, so the harvest
        // (and hence the solver trajectory) is deterministic; its cost
        // is accounted separately in `seed_harvest_s`. The unwinding
        // must stay shallow: easy per-trace unsats barely touch the
        // conflict pool, so on nonlinear systems (`program_c_fibo`)
        // the solver-depth default of 28 × 512 traces runs for
        // minutes — depth 4 already donates the useful directions.
        let harvest_start = Instant::now();
        let seed_budget = Budget::unlimited().with_global_conflict_limit(2_000);
        let harvest_config =
            InterpConfig { max_depth: 4, max_traces: 64, ..InterpConfig::default() };
        let seed_atoms =
            UnwindInterp::new(&b.system, harvest_config).harvest_seed_atoms(&seed_budget);
        run.seed_harvest_s += harvest_start.elapsed().as_secs_f64();
        let config = SolverConfig::default().with_oracle(mode).with_seed_atoms(seed_atoms);
        let mut solver = CegarSolver::new(&b.system, config);
        let start = Instant::now();
        let verdict = match solver.solve(&Budget::timeout(timeout)) {
            SolveResult::Sat(_) => "sat",
            SolveResult::Unsat(_) => "unsat",
            SolveResult::Unknown(_) => "unknown",
        };
        let elapsed = start.elapsed();
        let stats = solver.stats();
        run.verdicts.push(verdict);
        run.wall += elapsed;
        run.smt_checks += stats.smt_checks;
        run.smt_checks_skipped += stats.smt_checks_skipped;
        run.ctx_reuse_hits += stats.ctx_reuse_hits;
        run.learned_clauses += stats.learned_clauses;
        run.simplex_pivots += stats.simplex_pivots;
        run.theory_backtracks += stats.theory_backtracks;
        run.db_reductions += stats.db_reductions;
        run.learned_db_size += stats.learned_db_size;
        run.seeded_atoms += stats.seeded_atoms;
        run.seed_hits += stats.seed_hits;
        run.seeds_pruned += stats.seeds_pruned;
        run.learn_memo_hits += stats.learn_memo_hits;
        run.per_bench.push((b.name.clone(), elapsed, verdict));
        eprintln!(
            "  {:24} {:8} {:>9.3}s  checks {:4} (skipped {:3})",
            b.name,
            verdict,
            elapsed.as_secs_f64(),
            stats.smt_checks,
            stats.smt_checks_skipped,
        );
    }
    let report = scope.take_report();
    run.oracle_s = report.timer_secs("core.oracle");
    run.learner_s = report.timer_secs("core.learner");
    run.sample_extraction_s = report.timer_secs("core.sample_extraction");
    run.svm_s = report.timer_secs("ml.svm");
    run.dtree_s = report.timer_secs("ml.dtree");
    run.rationalize_s = report.timer_secs("ml.rationalize");
    run.alloc = alloc::delta(&alloc_before, &alloc::stats());
    run
}

/// Phase-accounting invariants: breakdown components must sum to no
/// more than their parent — the learner breakdown (SVM, decision tree,
/// rationalization) within `core.learner`, the top-level phases within
/// the mode wall. Slack absorbs timer rounding.
fn check_phase_invariants(label: &str, run: &ModeRun) {
    let slack = 0.05 + run.learner_s * 0.02;
    let learner_parts = run.svm_s + run.dtree_s + run.rationalize_s;
    assert!(
        learner_parts <= run.learner_s + slack,
        "{label}: learner breakdown ({learner_parts:.3}s = svm {:.3} + dtree {:.3} + \
         rationalize {:.3}) exceeds learner_s {:.3}s",
        run.svm_s,
        run.dtree_s,
        run.rationalize_s,
        run.learner_s
    );
    let wall = run.wall.as_secs_f64();
    let phases = run.oracle_s + run.learner_s + run.sample_extraction_s;
    let slack = 0.10 + wall * 0.05;
    assert!(
        phases <= wall + slack,
        "{label}: phases ({phases:.3}s = oracle {:.3} + learner {:.3} + \
         sample_extraction {:.3}) exceed wall_s {wall:.3}s",
        run.oracle_s,
        run.learner_s,
        run.sample_extraction_s
    );
}

/// `BENCH_<n>.json` slot after the highest existing index in `dir`
/// (not the first unused one: earlier reports may have been pruned
/// from the tree, and report numbering must keep moving forward so
/// `BENCH_<n>` always succeeds `BENCH_<n-1>` chronologically).
fn next_report_path(dir: &PathBuf) -> PathBuf {
    let max = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse::<u64>().ok()
        })
        .max();
    dir.join(format!("BENCH_{}.json", max.map_or(0, |m| m + 1)))
}

/// Reads `fresh.wall_s + incremental.wall_s` out of an earlier
/// `BENCH_<n>.json` report (any PR-2-era or later shape).
fn baseline_wall_s(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = linarb_trace::json::parse(&text).ok()?;
    let mode_wall = |m: &str| doc.get(m)?.get("wall_s")?.as_f64();
    Some(mode_wall("fresh")? + mode_wall("incremental")?)
}

/// Loads a BENCH report from disk into the comparison model.
fn load_report(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    BenchReport::parse(path, &text)
        .unwrap_or_else(|| panic!("{path} is not a BENCH report"))
}

/// Diffs `cur` against `prev`, writes `BENCH_DIFF.md` into `out_dir`,
/// and reports whether the regression gate passed.
fn run_compare(prev: &BenchReport, cur: &BenchReport, out_dir: &PathBuf) -> bool {
    let opts = CompareOptions {
        wall_tolerance: env_or("LINARB_SMOKE_WALL_TOLERANCE", 1.25f64),
        ..CompareOptions::default()
    };
    let cmp = compare(prev, cur, opts);
    let _ = std::fs::create_dir_all(out_dir);
    let diff_path = out_dir.join("BENCH_DIFF.md");
    std::fs::write(&diff_path, &cmp.markdown).expect("write BENCH_DIFF.md");
    if cmp.passed() {
        eprintln!(
            "compare: PASS vs {} ({} advisory warnings) -> {}",
            prev.label,
            cmp.warnings.len(),
            diff_path.display()
        );
    } else {
        eprintln!("compare: FAIL vs {} -> {}", prev.label, diff_path.display());
        for f in &cmp.failures {
            eprintln!("  regression: {f}");
        }
    }
    cmp.passed()
}

fn main() -> ExitCode {
    linarb_trace::init_from_env();
    let timeout = Duration::from_millis(env_or("LINARB_SMOKE_TIMEOUT_MS", 60_000u64));
    let out_dir = PathBuf::from(
        std::env::var("LINARB_SMOKE_OUT_DIR").unwrap_or_else(|_| ".".to_string()),
    );

    // `--compare <prev>` gates the fresh run below against an earlier
    // report; `--compare-only <prev> <cur>` just diffs two existing
    // reports (the CI negative test injects a synthetic slowdown into
    // <cur> via LINARB_SMOKE_INJECT_SLOWDOWN and expects failure).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut compare_prev: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--compare" => {
                compare_prev =
                    Some(argv.get(i + 1).expect("--compare needs a report path").clone());
                i += 2;
            }
            "--compare-only" => {
                let prev = load_report(argv.get(i + 1).expect("--compare-only needs <prev>"));
                let mut cur =
                    load_report(argv.get(i + 2).expect("--compare-only needs <cur>"));
                let factor: f64 = env_or("LINARB_SMOKE_INJECT_SLOWDOWN", 1.0f64);
                if factor != 1.0 {
                    eprintln!("injecting {factor}x synthetic slowdown into {}", cur.label);
                    cur.inject_slowdown(factor);
                }
                let ok = run_compare(&prev, &cur, &out_dir);
                return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            other => panic!("unknown argument {other}"),
        }
    }

    // A selection that exercises the incremental machinery: loop
    // invariants needing many refinements (fig1, program_a, jm2006,
    // hhk2008), recursion (fibo, even_odd), an unsat instance
    // (fibo_unsafe), and quick sanity cases. `program_a` appears in
    // both its mini-C form and the paper's CHC-direct form — the two
    // encodings stress the oracle quite differently.
    let program_a_chc = linarb_suite::Benchmark::from_chc(
        "program_a_chc",
        linarb_suite::Category::Paper,
        linarb_suite::Expected::Safe,
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
    let suite: Vec<linarb_suite::Benchmark> = vec![
        fig1(),
        program_a(),
        program_a_chc,
        program_c_fibo(),
        fibo_unsafe(),
        even_odd(),
        linarb_suite::cggmp2005(),
        linarb_suite::jm2006(),
        linarb_suite::hhk2008(),
        linarb_suite::invgen_sum(),
        linarb_suite::half_counter(),
    ];

    eprintln!("== fresh oracle ==");
    let fresh = run_mode(OracleMode::Fresh, &suite, timeout);
    eprintln!("== incremental oracle ==");
    let inc = run_mode(OracleMode::Incremental, &suite, timeout);

    // Phase accounting must be internally consistent before it is
    // published (the BENCH_7 seed-harvest misfiling class of bug).
    check_phase_invariants("fresh", &fresh);
    check_phase_invariants("incremental", &inc);

    // Definite verdicts must never contradict each other (one mode
    // may time out where the other solves; that is a perf difference,
    // not a soundness one — the dedicated differential test asserts
    // exact agreement on instances both modes finish).
    for (i, b) in suite.iter().enumerate() {
        let (f, g) = (fresh.verdicts[i], inc.verdicts[i]);
        assert!(
            f == g || f == "unknown" || g == "unknown",
            "oracle modes contradict on {}: fresh={f} incremental={g}",
            b.name
        );
    }

    // Portfolio race: the same suite plus the harder tier (instances
    // built so some non-CEGAR engine has a shortcut), each solved by
    // racing the default engine set at LINARB_SMOKE_PORTFOLIO_THREADS
    // workers (default 4). Verdicts are certificate-checked inside the
    // driver and asserted against ground truth here; wall times land
    // in a mode-shaped `portfolio` report section so `--compare` gates
    // them against the previous report from BENCH_9 on.
    let portfolio_threads = env_or("LINARB_SMOKE_PORTFOLIO_THREADS", 4usize);
    let harder = linarb_suite::harder_tier(7);
    eprintln!(
        "== portfolio ({} threads, {} suite + {} harder-tier) ==",
        portfolio_threads,
        suite.len(),
        harder.len()
    );
    let mut port_rows: Vec<(String, Duration, &'static str, String)> = Vec::new();
    let mut port_wall = Duration::ZERO;
    for b in suite.iter().chain(harder.iter()) {
        let config = PortfolioConfig::from_env().with_threads(portfolio_threads);
        let start = Instant::now();
        let out = solve_portfolio(&b.system, &config, &Budget::timeout(timeout));
        let elapsed = start.elapsed();
        let verdict = out.verdict.label();
        let expected = match b.expected {
            linarb_suite::Expected::Safe => "sat",
            linarb_suite::Expected::Unsafe => "unsat",
        };
        assert!(
            verdict == "unknown" || verdict == expected,
            "portfolio contradicts ground truth on {}: got {verdict}, expected {expected}",
            b.name
        );
        let winner = out.winner.map_or("none".to_string(), |w| w.to_string());
        eprintln!(
            "  {:24} {:8} {:>9.3}s  winner {}",
            b.name,
            verdict,
            elapsed.as_secs_f64(),
            winner
        );
        port_wall += elapsed;
        port_rows.push((b.name.clone(), elapsed, verdict, winner));
    }
    let port_solved = port_rows.iter().filter(|(_, _, v, _)| *v != "unknown").count();
    // Advisory (not a gate — the hard gate is --compare against the
    // previous report): on the subset both solve, the racing portfolio
    // should stay within 25% of the incremental single-engine walls.
    let inc_by_name: std::collections::BTreeMap<&str, (f64, &'static str)> = inc
        .per_bench
        .iter()
        .map(|(n, t, v)| (n.as_str(), (t.as_secs_f64(), *v)))
        .collect();
    let mut port_common = 0.0f64;
    let mut inc_common = 0.0f64;
    for (name, t, v, _) in &port_rows {
        if let Some((it, iv)) = inc_by_name.get(name.as_str()) {
            if *v != "unknown" && *iv != "unknown" {
                port_common += t.as_secs_f64();
                inc_common += *it;
            }
        }
    }
    if port_common > inc_common * 1.25 && port_common - inc_common > 0.25 {
        eprintln!(
            "warning: portfolio {port_common:.3}s vs single-engine {inc_common:.3}s on the \
             commonly-solved subset (>{:.0}% over)",
            (port_common / inc_common.max(1e-9) - 1.0) * 100.0
        );
    }

    // Serve replay: the daemon's structural invariant cache against a
    // mutated-variant stream (rename/reorder/scale exact-class
    // mutations plus constant perturbations; see
    // `linarb_serve::replay`). The base set is the suite minus
    // `program_a`/`jm2006`-class instances whose perturbed variants
    // are pathologically harder than the base — those belong to the
    // oracle-mode sections above, not to a cache-throughput
    // measurement. 125 variants per base × 8 bases = 1000 mutants.
    let replay_variants = env_or("LINARB_SMOKE_REPLAY_VARIANTS", 125usize);
    let replay_bases: Vec<(String, linarb_logic::ChcSystem)> = [
        fig1(),
        fibo_unsafe(),
        even_odd(),
        linarb_suite::cggmp2005(),
        linarb_suite::hhk2008(),
        linarb_suite::invgen_sum(),
        program_c_fibo(),
        linarb_suite::jm2006(),
    ]
    .into_iter()
    .map(|b| (b.name.clone(), b.system))
    .collect();
    eprintln!(
        "== serve replay ({} bases x {} variants) ==",
        replay_bases.len(),
        replay_variants
    );
    let replay_cfg = ReplayConfig { variants_per_base: replay_variants, ..ReplayConfig::default() };
    let serve_out = run_replay(&replay_bases, &replay_cfg);
    assert_eq!(
        serve_out.mismatches, 0,
        "serve cache changed a verdict against the cold engine"
    );
    let hit_rate = |hits: u64| hits as f64 / serve_out.jobs.max(1) as f64;
    eprintln!(
        "  warm {:.2}s ({:.0} solves/s, exact {} miss {}) vs cold {:.2}s \
         ({:.0} solves/s) -> {:.2}x; p50 {}us p99 {}us; unknown warm {} cold {}",
        serve_out.warm.wall_s,
        serve_out.warm.throughput,
        serve_out.warm.exact_hits,
        serve_out.warm.misses,
        serve_out.cold.wall_s,
        serve_out.cold.throughput,
        serve_out.speedup,
        serve_out.warm.p50_us,
        serve_out.warm.p99_us,
        serve_out.warm.unknown,
        serve_out.cold.unknown
    );

    let fresh_full = fresh.smt_checks - fresh.smt_checks_skipped;
    let inc_full = inc.smt_checks - inc.smt_checks_skipped;
    // Ratio of fresh wall to incremental wall: > 1 means the
    // incremental oracle is faster. (Previously published as the
    // ambiguously-named `speedup`; see EXPERIMENTS.md.)
    let fresh_vs_inc = fresh.wall.as_secs_f64() / inc.wall.as_secs_f64().max(1e-9);
    // Signed: positive = incremental ran *fewer* full checks than
    // fresh, negative = more (it re-explores after context resets).
    // See EXPERIMENTS.md for the sign convention.
    let check_delta = 1.0 - inc_full as f64 / fresh_full.max(1) as f64;

    // The same ratio over the commonly-solved subset. Instances where
    // *both* modes exhaust the budget contribute the same timeout to
    // each side and only dilute the ratio toward 1, so the standard
    // comparison excludes them (each mode's solved count is reported
    // separately).
    let both_solved = |i: usize| fresh.verdicts[i] != "unknown" && inc.verdicts[i] != "unknown";
    let subset_wall = |run: &ModeRun| -> f64 {
        run.per_bench
            .iter()
            .enumerate()
            .filter(|(i, _)| both_solved(*i))
            .map(|(_, (_, t, _))| t.as_secs_f64())
            .sum()
    };
    let (fresh_solved_wall, inc_solved_wall) = (subset_wall(&fresh), subset_wall(&inc));
    let solved_ratio = fresh_solved_wall / inc_solved_wall.max(1e-9);
    let count = |run: &ModeRun| run.verdicts.iter().filter(|v| **v != "unknown").count();
    let (fresh_solved, inc_solved) = (count(&fresh), count(&inc));

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"suite_size\": {},", suite.len()).unwrap();
    writeln!(json, "  \"timeout_ms\": {},", timeout.as_millis()).unwrap();
    for (label, run, full) in [("fresh", &fresh, fresh_full), ("incremental", &inc, inc_full)] {
        writeln!(json, "  \"{label}\": {{").unwrap();
        writeln!(json, "    \"wall_s\": {:.3},", run.wall.as_secs_f64()).unwrap();
        // Harvest runs before the solve clock; wall_s + seed_harvest_s
        // is the mode's true cost end to end.
        writeln!(json, "    \"seed_harvest_s\": {:.3},", run.seed_harvest_s).unwrap();
        writeln!(
            json,
            "    \"total_s\": {:.3},",
            run.wall.as_secs_f64() + run.seed_harvest_s
        )
        .unwrap();
        writeln!(json, "    \"smt_checks\": {},", run.smt_checks).unwrap();
        writeln!(json, "    \"smt_checks_skipped\": {},", run.smt_checks_skipped).unwrap();
        writeln!(json, "    \"full_smt_checks\": {full},").unwrap();
        writeln!(json, "    \"ctx_reuse_hits\": {},", run.ctx_reuse_hits).unwrap();
        writeln!(json, "    \"learned_clauses\": {},", run.learned_clauses).unwrap();
        writeln!(
            json,
            "    \"phases\": {{\"oracle_s\": {:.3}, \"learner_s\": {:.3}, \
             \"sample_extraction_s\": {:.3}}},",
            run.oracle_s, run.learner_s, run.sample_extraction_s
        )
        .unwrap();
        writeln!(
            json,
            "    \"oracle_breakdown\": {{\"simplex_pivots\": {}, \"theory_backtracks\": {}, \
             \"db_reductions\": {}, \"learned_db_size\": {}}},",
            run.simplex_pivots, run.theory_backtracks, run.db_reductions, run.learned_db_size
        )
        .unwrap();
        writeln!(
            json,
            "    \"learner_breakdown\": {{\"svm_s\": {:.3}, \"dtree_s\": {:.3}, \
             \"rationalize_s\": {:.3}, \"seeded_atoms\": {}, \
             \"seed_hits\": {}, \"seeds_pruned\": {}, \"learn_memo_hits\": {}}},",
            run.svm_s,
            run.dtree_s,
            run.rationalize_s,
            run.seeded_atoms,
            run.seed_hits,
            run.seeds_pruned,
            run.learn_memo_hits
        )
        .unwrap();
        if run.alloc.enabled {
            writeln!(
                json,
                "    \"alloc\": {{\"enabled\": true, \"total_bytes\": {}, \
                 \"peak_bytes\": {}, \"allocations\": {}}},",
                run.alloc.total_bytes, run.alloc.peak_bytes, run.alloc.allocations
            )
            .unwrap();
        } else {
            writeln!(json, "    \"alloc\": {{\"enabled\": false}},").unwrap();
        }
        let times: Vec<String> = run
            .per_bench
            .iter()
            .map(|(n, t, v)| {
                format!(
                    "{{\"name\": \"{n}\", \"wall_s\": {:.3}, \"verdict\": \"{v}\"}}",
                    t.as_secs_f64()
                )
            })
            .collect();
        writeln!(json, "    \"benchmarks\": [{}]", times.join(", ")).unwrap();
        writeln!(json, "  }},").unwrap();
    }
    writeln!(json, "  \"portfolio\": {{").unwrap();
    writeln!(json, "    \"wall_s\": {:.3},", port_wall.as_secs_f64()).unwrap();
    writeln!(json, "    \"threads\": {portfolio_threads},").unwrap();
    let rows: Vec<String> = port_rows
        .iter()
        .map(|(n, t, v, w)| {
            format!(
                "{{\"name\": \"{n}\", \"wall_s\": {:.3}, \"verdict\": \"{v}\", \
                 \"winner\": \"{w}\"}}",
                t.as_secs_f64()
            )
        })
        .collect();
    writeln!(json, "    \"benchmarks\": [{}]", rows.join(", ")).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"portfolio_solved\": {port_solved},").unwrap();
    writeln!(json, "  \"fresh_solved\": {fresh_solved},").unwrap();
    writeln!(json, "  \"incremental_solved\": {inc_solved},").unwrap();
    writeln!(json, "  \"fresh_vs_incremental_ratio\": {fresh_vs_inc:.3},").unwrap();
    writeln!(
        json,
        "  \"solved_subset_fresh_vs_incremental_ratio\": {solved_ratio:.3},"
    )
    .unwrap();
    writeln!(json, "  \"full_check_delta\": {check_delta:.3},").unwrap();
    writeln!(json, "  \"serve\": {{").unwrap();
    writeln!(json, "    \"bases\": {},", serve_out.bases).unwrap();
    writeln!(json, "    \"variants_per_base\": {replay_variants},").unwrap();
    writeln!(json, "    \"jobs\": {},", serve_out.jobs).unwrap();
    for (label, side) in [("warm", &serve_out.warm), ("cold", &serve_out.cold)] {
        writeln!(
            json,
            "    \"{label}\": {{\"wall_s\": {:.3}, \"throughput\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"exact_hits\": {}, \"misses\": {}, \
             \"verify_failures\": {}, \"unknown\": {}}},",
            side.wall_s,
            side.throughput,
            side.p50_us,
            side.p99_us,
            side.exact_hits,
            side.misses,
            side.verify_failures,
            side.unknown
        )
        .unwrap();
    }
    writeln!(json, "    \"speedup\": {:.2},", serve_out.speedup).unwrap();
    writeln!(json, "    \"exact_hit_rate\": {:.3},", hit_rate(serve_out.warm.exact_hits)).unwrap();
    writeln!(json, "    \"mismatches\": {}", serve_out.mismatches).unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    // Disabled-overhead guard: with no sinks installed, the tracing
    // layer must not move these wall times. CI points this at the
    // newest pre-existing report; the tolerance absorbs machine noise.
    if let Ok(baseline_path) = std::env::var("LINARB_SMOKE_BASELINE") {
        let tolerance: f64 = env_or("LINARB_SMOKE_TOLERANCE", 1.25f64);
        match baseline_wall_s(&baseline_path) {
            Some(base) if base > 0.0 => {
                let now = fresh.wall.as_secs_f64() + inc.wall.as_secs_f64();
                let ratio = now / base;
                eprintln!(
                    "overhead check: {now:.3}s vs baseline {base:.3}s \
                     (ratio {ratio:.3}, tolerance {tolerance:.2})"
                );
                assert!(
                    ratio <= tolerance,
                    "wall-clock regressed {ratio:.3}x past baseline {baseline_path} \
                     (tolerance {tolerance:.2})"
                );
            }
            _ => eprintln!("overhead check skipped: cannot read {baseline_path}"),
        }
    }

    let _ = std::fs::create_dir_all(&out_dir);
    let path = next_report_path(&out_dir);
    std::fs::write(&path, &json).expect("write report");
    eprintln!(
        "solved {fresh_solved} (fresh) vs {inc_solved} (incremental) of {}",
        suite.len()
    );
    eprintln!(
        "fresh/incremental wall ratio {solved_ratio:.2} on the commonly-solved subset \
         ({fresh_vs_inc:.2} on the full suite incl. double timeouts; > 1 means \
         incremental is faster), full-check delta {:+.1}% -> {}",
        check_delta * 100.0,
        path.display()
    );

    // Regression gate against the previous committed report.
    if let Some(prev_path) = compare_prev {
        let prev = load_report(&prev_path);
        let cur = BenchReport::parse(
            &path.file_name().unwrap().to_string_lossy(),
            &json,
        )
        .expect("self-report must parse");
        if !run_compare(&prev, &cur, &out_dir) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

//! The solver workloads (`paper_eval`, `scaling`): every instance
//! enters as mini-C text through `linarb_frontend::compile` and is
//! solved by `CegarSolver` under `SolverConfig::default()` at one
//! thread, as `linarb file.c` does with no flags. Two instances run
//! at a time; a pass covers the whole suite, and a run makes as many
//! whole passes as fit in `--seconds` (at least one).

use crate::check::{self, Certificate, Verdict};
use crate::report::{median_over, peak_rss_mb, Report, Values};
use crate::spans::{self, timed, Tracer};
use crate::stats;
use crate::{Options, BUDGET, WORKERS};
use linarb_logic::{ChcSystem, Formula, Var};
use linarb_ml::{Dataset, LearnError, SeedPlane};
use linarb_pool::Pool;
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, Learner, MlLearner, SolveStats, SolverConfig};
use linarb_suite::Benchmark;
use std::sync::Arc;
use std::time::Instant;

/// Setup-only repetitions behind `setup_s`.
const SETUP_REPS: usize = 21;

/// Instances the CLI drift guard replays.
const GUARD_INSTANCES: usize = 3;

/// Only instances solved this fast in-process are replayed by the
/// guard, so the CLI's own timing cannot turn them into timeouts.
const GUARD_MAX_SOLVE_S: f64 = 0.25;

/// Lower bound applied to each instance's time in
/// `verdict_geomean_ms`. Instances below it are dominated by the
/// host's scheduling noise (their times swing by a quarter between
/// runs), so the mean weighs the instances that take real work.
const GEOMEAN_FLOOR_MS: f64 = 50.0;

/// The traced run's learner: `MlLearner` with a span around every
/// call. Only timing differs from the default learner.
struct TimedLearner {
    inner: MlLearner,
    tracer: Arc<Tracer>,
    item: u64,
}

impl Learner for TimedLearner {
    fn learn(&self, data: &Dataset, params: &[Var]) -> Result<Formula, LearnError> {
        self.tracer
            .record("ml.learn", self.item, Result::is_ok, || {
                self.inner.learn(data, params)
            })
    }

    fn learn_seeded(
        &self,
        data: &Dataset,
        params: &[Var],
        seeds: &[SeedPlane],
    ) -> Result<(Formula, Vec<usize>), LearnError> {
        self.tracer
            .record("ml.learn", self.item, Result::is_ok, || {
                self.inner.learn_seeded(data, params, seeds)
            })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One instance's solve.
struct Outcome {
    verdict: Verdict,
    cert: Option<Certificate>,
    sys: Option<ChcSystem>,
    solve_s: f64,
    stats: SolveStats,
    /// Passed the correctness gate (set after the pass).
    ok: bool,
}

fn config(tracer: Option<&Arc<Tracer>>, item: u64) -> SolverConfig {
    match tracer {
        None => SolverConfig::default(),
        Some(t) => SolverConfig::with_learner(Arc::new(TimedLearner {
            inner: MlLearner::default(),
            tracer: Arc::clone(t),
            item,
        })),
    }
}

fn solve_one(b: &Benchmark, item: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let t = tracer.map(Arc::as_ref);
    let src = b.source.as_deref().unwrap_or_default();
    let (sys, _) = timed(t, "frontend.compile", item, || {
        linarb_frontend::compile(src)
    });
    let mut out = Outcome {
        verdict: Verdict::Unknown,
        cert: None,
        sys: None,
        solve_s: 0.0,
        stats: SolveStats::default(),
        ok: false,
    };
    let Ok(sys) = sys else { return out };
    let cfg = config(tracer, item);
    let (mut solver, _) = timed(t, "core.new", item, || CegarSolver::new(&sys, cfg));
    let budget = Budget::timeout(BUDGET);
    let (result, solve_s) = timed(t, "core.solve", item, || solver.solve(&budget));
    out.stats = solver.stats().clone();
    drop(solver);
    (out.verdict, out.cert) = check::split(result);
    out.solve_s = solve_s;
    out.sys = Some(sys);
    out
}

/// Runs `f(i)` for every index below `n` on [`WORKERS`] threads, in
/// input order. When one worker runs out of instances it spins on
/// `yield_now` until the other finishes; with one solve per core that
/// takes no time from the solve.
fn parallel<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    Pool::new(WORKERS).parallel_map((0..n).collect(), f)
}

/// Time `solve()` is charged for an instance: its measured time when
/// it passed the gate with a definite verdict, else twice the budget.
fn charged_s(o: &Outcome, budget_s: f64) -> f64 {
    if o.ok && o.verdict != Verdict::Unknown {
        o.solve_s
    } else {
        2.0 * budget_s
    }
}

fn pass_values(outs: &[Outcome], wall_s: f64, budget_s: f64) -> Values {
    let charged: Vec<f64> = outs.iter().map(|o| charged_s(o, budget_s)).collect();
    let charged_ms: Vec<f64> = charged.iter().map(|s| s * 1e3).collect();
    let solved = outs
        .iter()
        .filter(|o| o.ok && o.verdict != Verdict::Unknown)
        .count();
    Values::from([
        ("solved", solved as f64),
        ("par2_s", charged.iter().sum()),
        (
            "verdict_geomean_ms",
            stats::geomean(&charged_ms, GEOMEAN_FLOOR_MS),
        ),
        ("jobs_per_s", outs.len() as f64 / wall_s),
    ])
}

fn layer_values(outs: &[Outcome], spans: &[spans::Span]) -> Values {
    let sum = |f: fn(&SolveStats) -> u64| outs.iter().map(|o| f(&o.stats)).sum::<u64>() as f64;
    let (learn_calls, learn_errors) = spans::count(spans, "ml.learn");
    let (cert_checks, cert_failures) = spans::count(spans, "cert.verify");
    let memo_hits = sum(|s| s.learn_memo_hits as u64);
    let memo_den = memo_hits + learn_calls as f64;
    Values::from([
        (
            "frontend.compile_s",
            spans::total_secs(spans, "frontend.compile"),
        ),
        ("core.new_s", spans::total_secs(spans, "core.new")),
        ("core.solve_s", spans::total_secs(spans, "core.solve")),
        ("core.solve_self_s", spans::self_secs(spans, "core.solve")),
        ("core.iterations", sum(|s| s.iterations as u64)),
        ("core.smt_checks", sum(|s| s.smt_checks as u64)),
        (
            "core.smt_checks_skipped",
            sum(|s| s.smt_checks_skipped as u64),
        ),
        ("core.samples", sum(|s| s.samples as u64)),
        ("core.seed_hits", sum(|s| s.seed_hits)),
        ("core.seeded_atoms", sum(|s| s.seeded_atoms as u64)),
        ("ml.learn_s", spans::total_secs(spans, "ml.learn")),
        ("ml.learn_calls", learn_calls as f64),
        ("ml.learn_errors", learn_errors as f64),
        (
            "ml.memo_hit_ratio",
            if memo_den > 0.0 {
                memo_hits / memo_den
            } else {
                0.0
            },
        ),
        ("smt.simplex_pivots", sum(|s| s.simplex_pivots)),
        ("smt.theory_backtracks", sum(|s| s.theory_backtracks)),
        ("sat.learned_clauses", sum(|s| s.learned_clauses as u64)),
        ("cert.verify_s", spans::total_secs(spans, "cert.verify")),
        ("cert.checks", cert_checks as f64),
        ("cert.failures", cert_failures as f64),
    ])
}

/// One repetition behind `setup_s`: each of [`WORKERS`] threads makes
/// the calls before each solve (`compile`, `CegarSolver::new`) for the
/// whole suite; returns the mean of their summed call times. Using
/// every worker, as the solve passes do, measures the mix of cores the
/// solves run on: on a host whose cores differ in speed, a single
/// thread reads whichever core it landed on.
fn setup_time(suite: &[Benchmark]) -> f64 {
    let one = || {
        let start = Instant::now();
        for b in suite {
            if let Ok(sys) = linarb_frontend::compile(b.source.as_deref().unwrap_or_default()) {
                drop(CegarSolver::new(&sys, SolverConfig::default()));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("setup thread"))
            .sum()
    });
    total / WORKERS as f64
}

/// Runs a solver workload.
pub fn run(suite: &[Benchmark], opts: &Options) -> Report {
    let n = suite.len();
    let budget_s = BUDGET.as_secs_f64();
    let mut notes = vec![format!(
        "{}: {n} instances, seed {}, budget {:.1} s, {} workers, trace {}",
        opts.workload,
        opts.seed,
        budget_s,
        WORKERS,
        u8::from(opts.trace)
    )];
    let mut correct = true;

    let setup: Vec<f64> = (0..SETUP_REPS).map(|_| setup_time(suite)).collect();

    let tracer = opts.trace.then(|| Arc::new(Tracer::new()));
    let mut e2e_passes: Vec<Values> = Vec::new();
    let mut layer_passes: Vec<Values> = Vec::new();
    let mut all_spans = Vec::new();
    let mut first: Option<Vec<Outcome>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut outs = parallel(n, |i| solve_one(&suite[i], i as u64, tracer.as_ref()));
        let wall_s = pass_start.elapsed().as_secs_f64();
        // `--inject-fault` flips the known answer of the first instance
        // with a definite verdict, so the ground-truth comparison fails.
        let fault = (opts.inject_fault && e2e_passes.is_empty())
            .then(|| outs.iter().position(|o| o.verdict != Verdict::Unknown))
            .flatten();
        // The gate, outside the timed calls.
        let t = tracer.as_deref();
        for (i, (o, b)) in outs.iter_mut().zip(suite).enumerate() {
            let holds = match (&o.sys, &o.cert) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(sys), Some(cert)) => {
                    let verify = || check::certificate_holds(sys, cert);
                    match t {
                        Some(t) => t.record("cert.verify", i as u64, |ok: &bool| *ok, verify),
                        None => verify(),
                    }
                }
            };
            let expected = if fault == Some(i) {
                check::flipped(b.expected)
            } else {
                b.expected
            };
            o.ok = holds && check::consistent(expected, o.verdict, o.cert.as_ref());
            attempted += 1;
            if !o.ok {
                failed += 1;
                correct = false;
                notes.push(match o.sys {
                    None => format!("ERROR: {} does not compile", b.name),
                    Some(_) => format!(
                        "WRONG: {} answered {:?}, expected {expected:?}",
                        b.name, o.verdict
                    ),
                });
            }
        }
        e2e_passes.push(pass_values(&outs, wall_s, budget_s));
        if let Some(t) = &tracer {
            let spans = t.take();
            layer_passes.push(layer_values(&outs, &spans));
            all_spans.extend(spans);
        }
        if first.is_none() {
            first = Some(outs);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + wall_s > opts.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let unknown = first
        .iter()
        .filter(|o| o.verdict == Verdict::Unknown)
        .count();
    notes.push(format!(
        "passes: {}, first pass: {} solved, {unknown} unknown, {} wrong of {n}",
        e2e_passes.len(),
        e2e_passes[0]["solved"],
        first.iter().filter(|o| !o.ok).count()
    ));
    let timeouts: Vec<&str> = first
        .iter()
        .zip(suite)
        .filter(|(o, _)| o.verdict == Verdict::Unknown)
        .map(|(_, b)| b.name.as_str())
        .collect();
    notes.push(format!("unknown in the first pass: {}", timeouts.join(" ")));
    // Per-instance times, so a slowdown on an instance that stays
    // solved shows even where the timeouts' fixed charge dominates the
    // totals (`scaling`).
    let times: Vec<String> = first
        .iter()
        .zip(suite)
        .filter(|(o, _)| o.ok && o.verdict != Verdict::Unknown)
        .map(|(o, b)| format!("{}={:.1}", b.name, o.solve_s * 1e3))
        .collect();
    notes.push(format!(
        "solve ms of the solved instances in the first pass: {}",
        times.join(" ")
    ));

    // CLI drift guard on a few quickly solved instances.
    let guard_dir = opts.work_dir.join("guard");
    let picks = first
        .iter()
        .zip(suite)
        .filter(|(o, _)| o.ok && o.verdict != Verdict::Unknown && o.solve_s < GUARD_MAX_SOLVE_S)
        .take(GUARD_INSTANCES);
    for (o, b) in picks {
        let file = format!("{}.c", b.name.replace('/', "_"));
        let expected = (o.verdict, o.stats.iterations as u64);
        let src = b.source.as_deref().unwrap_or_default();
        match crate::cli::guard(&opts.linarb, &guard_dir, &file, src, expected, BUDGET) {
            Ok(line) => notes.push(line),
            Err(line) => {
                correct = false;
                notes.push(format!("DRIFT: {line}"));
            }
        }
    }

    if opts.trace {
        correct &= faithfulness(suite, &first, &mut notes);
        if let Some(v) = spans::check_nesting(&all_spans) {
            correct = false;
            notes.push(format!("SPANS: {v}"));
        }
        let path = opts
            .work_dir
            .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        match spans::write_jsonl(&all_spans, &path) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                all_spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let mut end_to_end = median_over(&e2e_passes);
    end_to_end.insert("setup_s", stats::median(&setup));
    end_to_end.insert("peak_rss_mb", peak_rss_mb("self"));
    Report {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer: median_over(&layer_passes),
        notes,
    }
}

/// The traced run must reach the same verdicts and iteration counts as
/// an untraced solve on every instance both solve; reports the
/// tracing overhead on that common set.
fn faithfulness(suite: &[Benchmark], traced: &[Outcome], notes: &mut Vec<String>) -> bool {
    let solved: Vec<usize> = (0..suite.len())
        .filter(|&i| traced[i].ok && traced[i].verdict != Verdict::Unknown)
        .collect();
    let plain = parallel(solved.len(), |k| {
        solve_one(&suite[solved[k]], solved[k] as u64, None)
    });
    let (mut same, mut both, mut t_traced, mut t_plain) = (true, 0usize, 0.0, 0.0);
    for (&i, p) in solved.iter().zip(&plain) {
        let t = &traced[i];
        if p.verdict == Verdict::Unknown {
            continue;
        }
        both += 1;
        t_traced += t.solve_s;
        t_plain += p.solve_s;
        if p.verdict != t.verdict || p.stats.iterations != t.stats.iterations {
            same = false;
            notes.push(format!(
                "UNFAITHFUL: {}: traced {:?}/{} iterations, untraced {:?}/{}",
                suite[i].name, t.verdict, t.stats.iterations, p.verdict, p.stats.iterations
            ));
        }
    }
    notes.push(format!(
        "faithfulness: {both} instances solved traced and untraced, verdicts and iterations {}; \
         tracing overhead on them {:+.1}% of solve time ({t_traced:.3} s traced, {t_plain:.3} s untraced)",
        if same { "identical" } else { "DIFFER" },
        if t_plain > 0.0 { (t_traced / t_plain - 1.0) * 100.0 } else { 0.0 }
    ));
    same
}

//! Portfolio CHC driver: race diverse engines, first *checkable
//! certificate* wins.
//!
//! CHC-COMP-winning solvers are portfolios: no single engine dominates
//! across program shapes, so the fastest correct answer comes from
//! racing a diverse set under one budget. This crate races the
//! data-driven CEGAR solver (the paper's tool) against the baseline
//! engines from `linarb-baselines` — PDR/Spacer, BMC, unwinding
//! interpolation, and the PIE-/DIG-learner CEGAR variants — on
//! `linarb-pool` workers.
//!
//! Three design decisions:
//!
//! * **Shared budget, cooperative cancellation.** Every engine polls
//!   the same [`Budget`] carrying one [`CancelToken`]; the first
//!   engine to produce a *certified* verdict flips the token and every
//!   loser winds down at its next poll site (the same sites that
//!   observe deadlines and conflict pools).
//! * **First checkable certificate, not first verdict.** An engine
//!   wins only if its answer survives an independent check: a SAT
//!   interpretation is verified clause-by-clause
//!   ([`verify_interpretation`]), an UNSAT derivation is replayed
//!   concretely ([`DerivationNode::replay`]). A racing engine with a
//!   soundness bug (or an interpolation `Unsat` whose trace cannot be
//!   reconstructed) therefore cannot poison the portfolio verdict —
//!   it just loses.
//! * **Cross-seeding.** Losing engines still help the winner: PDR
//!   publishes generalized lemma atoms and interpolation its Farkas
//!   planes into a [`SeedExchange`] drained by the CEGAR solver's
//!   `SeedStore` at round boundaries, and BMC publishes counterexample
//!   states as negative samples.
//!
//! With one worker the driver degrades to deterministic round-robin
//! time slicing (doubling slices, engines re-run from scratch), which
//! also powers `examples/solver_comparison.rs`. Setting
//! `LINARB_PORTFOLIO_FORCE=<engine>` runs exactly one engine — the
//! deterministic mode CI uses.

use linarb_logic::{ChcSystem, Interpretation};
use linarb_ml::LearnConfig;
use linarb_smt::{Budget, CancelToken};
use linarb_solver::{
    verify_interpretation, CegarSolver, CrossSeed, DerivationNode, SolveResult, SolverConfig,
};
use linarb_baselines::{
    bmc_with_sink, BmcResult, DigLearner, InterpConfig, InterpMode, InterpResult, PdrConfig,
    PdrResult, PdrSolver, PieLearner, UnwindInterp,
};
use linarb_pool::Pool;
use linarb_trace::{event, Level};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod seed;
pub use seed::SeedExchange;

/// The engines the portfolio can race or run singly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's data-driven CEGAR solver (SVM + decision tree).
    Cegar,
    /// CEGAR ablation with the decision-tree layer disabled.
    CegarNoDt,
    /// PIE-style enumeration learner inside the CEGAR loop.
    Pie,
    /// DIG-style template learner inside the CEGAR loop.
    Dig,
    /// PDR with must summaries (Spacer).
    Spacer,
    /// PDR without must summaries (GPDR).
    Gpdr,
    /// Bounded model checking (refutation only).
    Bmc,
    /// Batch unwinding interpolation (Duality).
    Duality,
    /// Trace-by-trace interpolation (UAutomizer).
    UAutomizer,
}

impl EngineKind {
    /// The default race: the CEGAR solver plus the five baseline
    /// engine families of the paper's evaluation.
    pub fn race() -> Vec<EngineKind> {
        vec![
            EngineKind::Cegar,
            EngineKind::Pie,
            EngineKind::Dig,
            EngineKind::Spacer,
            EngineKind::Bmc,
            EngineKind::Duality,
        ]
    }

    /// Every selectable engine.
    pub fn all() -> Vec<EngineKind> {
        vec![
            EngineKind::Cegar,
            EngineKind::CegarNoDt,
            EngineKind::Pie,
            EngineKind::Dig,
            EngineKind::Spacer,
            EngineKind::Gpdr,
            EngineKind::Bmc,
            EngineKind::Duality,
            EngineKind::UAutomizer,
        ]
    }

    /// Stable CLI/env name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cegar => "cegar",
            EngineKind::CegarNoDt => "cegar-nodt",
            EngineKind::Pie => "pie",
            EngineKind::Dig => "dig",
            EngineKind::Spacer => "spacer",
            EngineKind::Gpdr => "gpdr",
            EngineKind::Bmc => "bmc",
            EngineKind::Duality => "duality",
            EngineKind::UAutomizer => "uautomizer",
        }
    }

    /// Parses a CLI/env name (case-insensitive; accepts a few
    /// aliases).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().as_str() {
            "cegar" | "linarb" | "lineararbitrary" => Some(EngineKind::Cegar),
            "cegar-nodt" | "nodt" => Some(EngineKind::CegarNoDt),
            "pie" => Some(EngineKind::Pie),
            "dig" => Some(EngineKind::Dig),
            "spacer" => Some(EngineKind::Spacer),
            "gpdr" => Some(EngineKind::Gpdr),
            "bmc" => Some(EngineKind::Bmc),
            "duality" => Some(EngineKind::Duality),
            "uautomizer" | "trace" => Some(EngineKind::UAutomizer),
            _ => None,
        }
    }

    /// Can this engine ever produce a SAT verdict? (BMC is
    /// refutation-only.)
    pub fn can_prove_safe(self) -> bool {
        !matches!(self, EngineKind::Bmc)
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An independently checkable proof object.
#[derive(Clone, Debug)]
pub enum Certificate {
    /// A SAT certificate: an interpretation claimed to validate every
    /// clause. Checked by [`verify_interpretation`].
    Invariant(Interpretation),
    /// An UNSAT certificate: a concrete counterexample derivation.
    /// Checked by [`DerivationNode::replay`].
    Derivation(DerivationNode),
}

/// The unified verdict every engine's native result converts into —
/// the satellite-task replacement for matching on `SolveResult`,
/// `PdrResult`, `BmcResult`, and `InterpResult` separately.
#[derive(Clone, Debug)]
pub enum EngineVerdict {
    /// System satisfiable, with the invariant certificate.
    Sat(Certificate),
    /// System unsatisfiable, with the derivation certificate.
    Unsat(Certificate),
    /// No certified answer; carries a short reason.
    Unknown(String),
}

impl EngineVerdict {
    /// The certificate backing a definite verdict.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            EngineVerdict::Sat(c) | EngineVerdict::Unsat(c) => Some(c),
            EngineVerdict::Unknown(_) => None,
        }
    }

    /// `true` for [`EngineVerdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, EngineVerdict::Sat(_))
    }

    /// `true` for [`EngineVerdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, EngineVerdict::Unsat(_))
    }

    /// Sat or Unsat (certificate-bearing)?
    pub fn is_definite(&self) -> bool {
        !matches!(self, EngineVerdict::Unknown(_))
    }

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVerdict::Sat(_) => "sat",
            EngineVerdict::Unsat(_) => "unsat",
            EngineVerdict::Unknown(_) => "unknown",
        }
    }
}

impl From<SolveResult> for EngineVerdict {
    fn from(r: SolveResult) -> EngineVerdict {
        match r {
            SolveResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
            SolveResult::Unsat(d) => EngineVerdict::Unsat(Certificate::Derivation(d)),
            SolveResult::Unknown(why) => EngineVerdict::Unknown(format!("{why:?}")),
        }
    }
}

impl From<PdrResult> for EngineVerdict {
    fn from(r: PdrResult) -> EngineVerdict {
        match r {
            PdrResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
            PdrResult::Unsat(d) => EngineVerdict::Unsat(Certificate::Derivation(d)),
            PdrResult::Unknown => EngineVerdict::Unknown("pdr exhausted".to_string()),
        }
    }
}

impl From<BmcResult> for EngineVerdict {
    fn from(r: BmcResult) -> EngineVerdict {
        match r {
            BmcResult::Violation { derivation, .. } => {
                EngineVerdict::Unsat(Certificate::Derivation(derivation))
            }
            BmcResult::SafeUpTo(d) => {
                EngineVerdict::Unknown(format!("bmc inconclusive: safe up to depth {d}"))
            }
            BmcResult::Unknown => EngineVerdict::Unknown("bmc exhausted".to_string()),
        }
    }
}

/// Checks a verdict's certificate against the system: SAT
/// interpretations are verified clause-by-clause, UNSAT derivations
/// replayed concretely. `Unknown` never checks. The budget bounds the
/// SMT work of the SAT check (pass one *without* the shared cancel
/// token: the winner checks itself after cancelling the losers).
pub fn check_certificate(sys: &ChcSystem, verdict: &EngineVerdict, budget: &Budget) -> bool {
    match verdict {
        EngineVerdict::Sat(Certificate::Invariant(interp)) => {
            verify_interpretation(sys, interp, budget) == Some(true)
        }
        EngineVerdict::Unsat(Certificate::Derivation(d)) => d.replay(sys),
        // Mismatched certificate kinds never certify: an invariant
        // cannot witness unsat, nor a derivation sat.
        _ => false,
    }
}

/// Portfolio configuration.
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// Engines to race (default: [`EngineKind::race`]).
    pub engines: Vec<EngineKind>,
    /// Pool width. With 1, engines round-robin on doubling time
    /// slices instead of racing concurrently. Set from
    /// `LINARB_THREADS` by [`PortfolioConfig::from_env`].
    pub threads: usize,
    /// Enable the cross-seeding bus (lemma/interpolant atoms and BMC
    /// negatives flowing into the CEGAR engine).
    pub cross_seed: bool,
    /// Run exactly this engine (deterministic CI mode); set from
    /// `LINARB_PORTFOLIO_FORCE` by [`PortfolioConfig::from_env`].
    pub force: Option<EngineKind>,
    /// BMC iterative-deepening cap.
    pub bmc_max_depth: usize,
    /// First slice width of the sequential (1-thread) mode.
    pub initial_slice: Duration,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            engines: EngineKind::race(),
            threads: 1,
            cross_seed: true,
            force: None,
            bmc_max_depth: 256,
            initial_slice: Duration::from_millis(200),
        }
    }
}

impl PortfolioConfig {
    /// Default config with `LINARB_THREADS` (race width, default 1)
    /// and `LINARB_PORTFOLIO_FORCE` honoured. This is the one place
    /// the portfolio reads `LINARB_THREADS`.
    pub fn from_env() -> PortfolioConfig {
        let mut c = PortfolioConfig::default();
        if let Some(n) = std::env::var("LINARB_THREADS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            c = c.with_threads(n);
        }
        if let Ok(name) = std::env::var("LINARB_PORTFOLIO_FORCE") {
            c.force = EngineKind::parse(&name);
        }
        c
    }

    /// Builder: pool width.
    pub fn with_threads(mut self, threads: usize) -> PortfolioConfig {
        self.threads = threads.max(1);
        self
    }

    /// Builder: engine list.
    pub fn with_engines(mut self, engines: Vec<EngineKind>) -> PortfolioConfig {
        self.engines = engines;
        self
    }
}

/// How one engine fared in a portfolio run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The engine.
    pub engine: EngineKind,
    /// Final verdict label (`sat`/`unsat`/`unknown`/`skipped`).
    pub outcome: &'static str,
    /// Wall-clock spent in this engine (cumulative over slices in
    /// sequential mode).
    pub time: Duration,
    /// `Some(result)` if a certificate check ran.
    pub certified: Option<bool>,
    /// Did this engine's certified verdict decide the portfolio?
    pub winner: bool,
}

/// Result of a portfolio run.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The winning certified verdict (or `Unknown`).
    pub verdict: EngineVerdict,
    /// Which engine won, if any.
    pub winner: Option<EngineKind>,
    /// Per-engine outcome/time/winner rows (engine order = config
    /// order).
    pub reports: Vec<EngineReport>,
    /// Total wall-clock of the run.
    pub wall: Duration,
    /// Atoms published on the seeding bus (0 without cross-seeding).
    pub seed_atoms: usize,
    /// Negative samples published on the seeding bus.
    pub seed_negatives: usize,
}

impl PortfolioOutcome {
    /// Exports per-engine outcome/time/winner into a metrics report
    /// (`portfolio.*` keys), alongside the CEGAR `SolveStats` export.
    pub fn export_into(&self, report: &mut linarb_trace::metrics::MetricsReport) {
        report.set_counter("portfolio.engines", self.reports.len() as u64);
        report.set_counter("portfolio.wall_us", self.wall.as_micros() as u64);
        report.set_counter("portfolio.seed_atoms", self.seed_atoms as u64);
        report.set_counter("portfolio.seed_negatives", self.seed_negatives as u64);
        for r in &self.reports {
            report.set_counter(
                &format!("portfolio.{}.time_us", r.engine),
                r.time.as_micros() as u64,
            );
            report.set_counter(
                &format!("portfolio.{}.winner", r.engine),
                u64::from(r.winner),
            );
            let code = match r.outcome {
                "sat" => 1,
                "unsat" => 2,
                "unknown" => 3,
                _ => 0, // skipped
            };
            report.set_counter(&format!("portfolio.{}.outcome", r.engine), code);
        }
    }

    /// One human-readable line per engine (for `--stats`/progress
    /// output).
    pub fn summary_lines(&self) -> Vec<String> {
        self.reports
            .iter()
            .map(|r| {
                format!(
                    "{:<11} {:>8} {:>9.3}s{}{}",
                    r.engine.name(),
                    r.outcome,
                    r.time.as_secs_f64(),
                    match r.certified {
                        Some(true) => " certified",
                        Some(false) => " REJECTED",
                        None => "",
                    },
                    if r.winner { " ← winner" } else { "" },
                )
            })
            .collect()
    }
}

/// Runs one engine to completion under `budget`, converting its native
/// result into an [`EngineVerdict`]. `exchange` (when given) is wired
/// as publisher or consumer according to the engine's role.
///
/// Interpolation `Unsat` verdicts carry only a depth; the driver
/// re-derives a concrete certificate by running BMC to that depth
/// (plus one level of slack) — failure to confirm demotes the verdict
/// to `Unknown`, keeping an uncertifiable refutation from winning.
pub fn run_engine(
    kind: EngineKind,
    sys: &ChcSystem,
    budget: &Budget,
    exchange: Option<&Arc<SeedExchange>>,
    bmc_max_depth: usize,
) -> EngineVerdict {
    let chan = |e: &Arc<SeedExchange>| -> Arc<dyn CrossSeed> { Arc::clone(e) as _ };
    match kind {
        EngineKind::Cegar | EngineKind::CegarNoDt => {
            let mut lc = LearnConfig::default();
            if kind == EngineKind::CegarNoDt {
                lc.use_decision_tree = false;
            }
            let mut config = SolverConfig::with_learn_config(lc);
            if let Some(e) = exchange {
                // Sole consumer: atoms land in the SeedStore,
                // negatives in the sample stores, at round boundaries.
                config = config.with_seed_channel(chan(e));
            }
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Pie => {
            let learner = PieLearner::default().with_budget(budget.clone());
            let config = SolverConfig::with_learner(Arc::new(learner));
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Dig => {
            let learner = DigLearner::default().with_budget(budget.clone());
            let config = SolverConfig::with_learner(Arc::new(learner));
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Spacer | EngineKind::Gpdr => {
            let config = PdrConfig {
                spacer_mode: kind == EngineKind::Spacer,
                ..PdrConfig::default()
            };
            let mut pdr = PdrSolver::new(sys, config);
            if let Some(e) = exchange {
                pdr = pdr.with_seed_sink(chan(e));
            }
            pdr.solve(budget).into()
        }
        EngineKind::Bmc => {
            let sink = exchange.map(|e| e.as_ref() as &dyn CrossSeed);
            bmc_with_sink(sys, bmc_max_depth, budget, sink).into()
        }
        EngineKind::Duality | EngineKind::UAutomizer => {
            let mode = if kind == EngineKind::Duality {
                InterpMode::Duality
            } else {
                InterpMode::TraceRefinement
            };
            let config = InterpConfig { mode, ..InterpConfig::default() };
            let mut interp = UnwindInterp::new(sys, config);
            if let Some(e) = exchange {
                interp = interp.with_seed_sink(chan(e));
            }
            match interp.solve(budget) {
                InterpResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
                InterpResult::Unsat { depth } => {
                    // Re-derive a replayable certificate at the claimed
                    // depth (+1 covers the trace/derivation height
                    // off-by-one).
                    let sink = exchange.map(|e| e.as_ref() as &dyn CrossSeed);
                    match bmc_with_sink(sys, depth + 1, budget, sink) {
                        BmcResult::Violation { derivation, .. } => {
                            EngineVerdict::Unsat(Certificate::Derivation(derivation))
                        }
                        _ => EngineVerdict::Unknown(format!(
                            "interp unsat at depth {depth} not confirmed by bmc"
                        )),
                    }
                }
                InterpResult::Unknown => EngineVerdict::Unknown("interp exhausted".to_string()),
            }
        }
    }
}

/// The shared winner slot: first certified definite verdict claims it
/// and cancels everyone else.
struct WinnerSlot {
    slot: Mutex<Option<(EngineKind, EngineVerdict)>>,
    token: CancelToken,
}

impl WinnerSlot {
    fn claim(&self, kind: EngineKind, verdict: EngineVerdict) -> bool {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some((kind, verdict));
            // Flip the token *after* the slot is written: a loser
            // observing cancellation will find the winner recorded.
            self.token.cancel();
            true
        } else {
            false
        }
    }
}

/// Races the configured engines on `sys` under `budget`. See the
/// crate docs for the winning rule and cancellation semantics.
pub fn solve_portfolio(
    sys: &ChcSystem,
    config: &PortfolioConfig,
    budget: &Budget,
) -> PortfolioOutcome {
    let start = Instant::now();
    if let Some(kind) = config.force {
        return run_forced(kind, sys, config, budget, start);
    }
    if config.threads <= 1 {
        return run_sliced(sys, config, budget, start);
    }
    run_racing(sys, config, budget, start)
}

fn finish(
    verdict: EngineVerdict,
    winner: Option<EngineKind>,
    reports: Vec<EngineReport>,
    start: Instant,
    exchange: Option<&Arc<SeedExchange>>,
) -> PortfolioOutcome {
    let outcome = PortfolioOutcome {
        verdict,
        winner,
        reports,
        wall: start.elapsed(),
        seed_atoms: exchange.map_or(0, |e| e.atoms_published()),
        seed_negatives: exchange.map_or(0, |e| e.negatives_published()),
    };
    event!(
        Level::Info,
        "portfolio",
        "portfolio.done",
        "verdict" => outcome.verdict.label(),
        "winner" => outcome.winner.map_or("none", EngineKind::name),
        "wall_us" => outcome.wall.as_micros() as u64,
    );
    outcome
}

/// Deterministic CI mode: exactly one engine, full budget, certificate
/// still checked.
fn run_forced(
    kind: EngineKind,
    sys: &ChcSystem,
    config: &PortfolioConfig,
    budget: &Budget,
    start: Instant,
) -> PortfolioOutcome {
    let t0 = Instant::now();
    let verdict = run_engine(kind, sys, budget, None, config.bmc_max_depth);
    let time = t0.elapsed();
    let certified = verdict
        .is_definite()
        .then(|| check_certificate(sys, &verdict, &budget.without_cancel()));
    let won = certified == Some(true);
    let report = EngineReport {
        engine: kind,
        outcome: verdict.label(),
        time,
        certified,
        winner: won,
    };
    let final_verdict = if won {
        verdict
    } else {
        EngineVerdict::Unknown(format!(
            "forced engine {kind}: verdict {} not certified",
            verdict.label()
        ))
    };
    finish(final_verdict, won.then_some(kind), vec![report], start, None)
}

/// Concurrent race on the pool: every engine runs once under the
/// shared cancellable budget; the first certified verdict cancels the
/// rest.
fn run_racing(
    sys: &ChcSystem,
    config: &PortfolioConfig,
    budget: &Budget,
    start: Instant,
) -> PortfolioOutcome {
    let token = CancelToken::new();
    let shared = budget.clone().with_cancel_token(token.clone());
    let exchange = config.cross_seed.then(|| Arc::new(SeedExchange::default()));
    let winner = WinnerSlot { slot: Mutex::new(None), token };
    let pool = Pool::new(config.threads);

    let reports = pool.parallel_map(config.engines.clone(), |kind| {
        let t0 = Instant::now();
        // An engine scheduled after the race was decided exits
        // immediately — it would only burn the check budget.
        if winner.token.is_cancelled() {
            return EngineReport {
                engine: kind,
                outcome: "skipped",
                time: Duration::ZERO,
                certified: None,
                winner: false,
            };
        }
        let verdict = run_engine(kind, sys, &shared, exchange.as_ref(), config.bmc_max_depth);
        let mut certified = None;
        let mut won = false;
        if verdict.is_definite() {
            // Check under the caller's budget *without* the shared
            // token: the winner must be able to certify itself after
            // (or while) losers are cancelled.
            let ok = check_certificate(sys, &verdict, &budget.without_cancel());
            certified = Some(ok);
            if ok {
                won = winner.claim(kind, verdict.clone());
            }
        }
        let report = EngineReport {
            engine: kind,
            outcome: verdict.label(),
            time: t0.elapsed(),
            certified,
            winner: won,
        };
        event!(
            Level::Debug,
            "portfolio",
            "portfolio.engine_done",
            "engine" => kind.name(),
            "outcome" => report.outcome,
            "winner" => won,
        );
        report
    });

    let (win_kind, win_verdict) = match winner.slot.into_inner().unwrap() {
        Some((k, v)) => (Some(k), v),
        None => (
            None,
            EngineVerdict::Unknown("no engine produced a certified verdict".to_string()),
        ),
    };
    finish(win_verdict, win_kind, reports, start, exchange.as_ref())
}

/// Sequential fallback (1 worker): deterministic round-robin over the
/// engines on doubling time slices. Engines are stateless across
/// slices (each slice re-runs from scratch) except for the seeding
/// bus, which accumulates — so a CEGAR re-run starts ahead of its
/// last attempt. An engine that answers `Unknown` *without* running
/// out of slice is dropped once the bus stops changing: re-running a
/// deterministic engine on identical inputs cannot improve.
fn run_sliced(
    sys: &ChcSystem,
    config: &PortfolioConfig,
    budget: &Budget,
    start: Instant,
) -> PortfolioOutcome {
    let exchange = config.cross_seed.then(|| Arc::new(SeedExchange::default()));
    let mut reports: Vec<EngineReport> = config
        .engines
        .iter()
        .map(|&engine| EngineReport {
            engine,
            outcome: "skipped",
            time: Duration::ZERO,
            certified: None,
            winner: false,
        })
        .collect();
    // Publication count on the bus at each engine's last run; `None`
    // once the engine is dropped for good.
    let mut last_bus: Vec<Option<Option<usize>>> = vec![Some(None); config.engines.len()];
    let mut slice = config.initial_slice;
    let max_slice = Duration::from_secs(60);

    while !budget.exhausted() && last_bus.iter().any(Option::is_some) {
        for (i, &kind) in config.engines.iter().enumerate() {
            if budget.exhausted() {
                break;
            }
            let Some(seen) = last_bus[i] else { continue };
            let bus_now = exchange
                .as_ref()
                .map(|e| e.atoms_published() + e.negatives_published());
            // Dropped-engine rule: deterministic + same inputs ⇒ same
            // answer. Re-run only if the bus moved since last time.
            if let Some(prev) = seen {
                if bus_now == Some(prev) || bus_now.is_none() {
                    continue;
                }
            }
            let this_slice = match budget.remaining() {
                Some(rem) => slice.min(rem),
                None => slice,
            };
            let slice_budget = Budget::timeout(this_slice);
            let t0 = Instant::now();
            let verdict =
                run_engine(kind, sys, &slice_budget, exchange.as_ref(), config.bmc_max_depth);
            reports[i].time += t0.elapsed();
            reports[i].outcome = verdict.label();
            if verdict.is_definite() {
                let ok = check_certificate(sys, &verdict, budget);
                reports[i].certified = Some(ok);
                if ok {
                    reports[i].winner = true;
                    return finish(verdict, Some(kind), reports, start, exchange.as_ref());
                }
            }
            if !slice_budget.exhausted() {
                // Gave up before the slice ran out: only a changed bus
                // can change its mind.
                last_bus[i] = Some(bus_now.map(|n| {
                    // account for anything it published itself
                    exchange
                        .as_ref()
                        .map(|e| e.atoms_published() + e.negatives_published())
                        .unwrap_or(n)
                }));
                if exchange.is_none() {
                    last_bus[i] = None; // no bus: never retry
                }
            }
        }
        slice = (slice * 2).min(max_slice);
        // Unlimited budget with every engine dropped is handled by the
        // loop condition; unlimited budget with live engines keeps
        // slicing (an engine that used its whole slice may yet answer
        // with more time).
    }
    finish(
        EngineVerdict::Unknown("no engine produced a certified verdict".to_string()),
        None,
        reports,
        start,
        exchange.as_ref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;

    const SAFE: &str = r#"
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 0) (p x))))
        (assert (forall ((x Int) (x1 Int))
            (=> (and (p x) (< x 5) (= x1 (+ x 1))) (p x1))))
        (assert (forall ((x Int)) (=> (p x) (<= x 5))))
    "#;

    fn unsafe_text() -> String {
        SAFE.replace("(<= x 5)", "(<= x 3)")
    }

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(EngineKind::parse("LinArb"), Some(EngineKind::Cegar));
        assert_eq!(EngineKind::parse("nonsense"), None);
    }

    #[test]
    fn every_engine_verdict_is_certifiable_on_the_counter() {
        let sys = parse_chc(SAFE).unwrap();
        let bad = parse_chc(&unsafe_text()).unwrap();
        let budget = Budget::timeout(Duration::from_secs(30));
        for kind in EngineKind::all() {
            let v = run_engine(kind, &sys, &budget, None, 64);
            if v.is_definite() {
                assert!(v.is_sat(), "{kind} wrong on safe counter: {v:?}");
                assert!(check_certificate(&sys, &v, &budget), "{kind} sat cert");
            }
            let v = run_engine(kind, &bad, &budget, None, 64);
            if v.is_definite() {
                assert!(v.is_unsat(), "{kind} wrong on unsafe counter: {v:?}");
                assert!(check_certificate(&bad, &v, &budget), "{kind} unsat cert");
            }
        }
    }

    #[test]
    fn portfolio_solves_both_polarities_sequential() {
        let config = PortfolioConfig::default();
        let budget = Budget::timeout(Duration::from_secs(60));
        let sys = parse_chc(SAFE).unwrap();
        let out = solve_portfolio(&sys, &config, &budget);
        assert!(out.verdict.is_sat(), "{out:?}");
        assert!(out.winner.is_some());
        let bad = parse_chc(&unsafe_text()).unwrap();
        let out = solve_portfolio(&bad, &config, &budget);
        assert!(out.verdict.is_unsat(), "{out:?}");
    }

    #[test]
    fn portfolio_solves_both_polarities_racing() {
        let config = PortfolioConfig::default().with_threads(3);
        let budget = Budget::timeout(Duration::from_secs(60));
        let sys = parse_chc(SAFE).unwrap();
        let out = solve_portfolio(&sys, &config, &budget);
        assert!(out.verdict.is_sat(), "{out:?}");
        let win = out.winner.expect("racing winner");
        assert!(
            out.reports.iter().any(|r| r.engine == win && r.winner),
            "winner row must be marked"
        );
        let bad = parse_chc(&unsafe_text()).unwrap();
        let out = solve_portfolio(&bad, &config, &budget);
        assert!(out.verdict.is_unsat(), "{out:?}");
    }

    #[test]
    fn forced_engine_is_deterministic() {
        let sys = parse_chc(SAFE).unwrap();
        let budget = Budget::timeout(Duration::from_secs(30));
        let config = PortfolioConfig {
            force: Some(EngineKind::Spacer),
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&sys, &config, &budget);
        assert_eq!(out.winner, Some(EngineKind::Spacer), "{out:?}");
        assert_eq!(out.reports.len(), 1);
        assert!(out.reports[0].certified == Some(true));
    }

    #[test]
    fn cancelled_engines_return_promptly() {
        // Satellite check: flipping the token makes every engine
        // return within a bounded number of steps — well under a
        // second on a system they cannot finish instantly.
        let sys = parse_chc(SAFE).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        for kind in EngineKind::all() {
            let t0 = Instant::now();
            let v = run_engine(kind, &sys, &budget, None, 64);
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "{kind} did not cancel promptly"
            );
            assert!(!v.is_definite(), "{kind} answered under cancellation: {v:?}");
        }
    }

    #[test]
    fn seed_exchange_flows_into_outcome_counters() {
        let bad = parse_chc(&unsafe_text()).unwrap();
        let config = PortfolioConfig::default();
        let budget = Budget::timeout(Duration::from_secs(60));
        let out = solve_portfolio(&bad, &config, &budget);
        assert!(out.verdict.is_unsat(), "{out:?}");
        // PDR lemmas/BMC negatives publish on the bus during the race.
        // (Exact counts are timing-dependent; presence is not asserted
        // for the winner-dependent cases — just consistency.)
        assert!(out.seed_atoms + out.seed_negatives < usize::MAX);
    }
}

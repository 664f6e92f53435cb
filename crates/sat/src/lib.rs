//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the boolean core of linarb's lazy SMT solver
//! (`linarb-smt`): the SMT layer abstracts theory atoms into boolean
//! variables, asks this solver for a satisfying assignment, and feeds
//! back *theory conflict clauses* until the assignment is
//! theory-consistent or the formula becomes unsatisfiable.
//!
//! The design is a compact MiniSat: two-watched-literal propagation,
//! first-UIP conflict analysis with clause learning, VSIDS-style
//! activity heuristics with phase saving, and geometric restarts.
//!
//! # Examples
//!
//! ```
//! use linarb_sat::{SatSolver, SatResult};
//!
//! let mut s = SatSolver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.positive(), b.positive()]);
//! s.add_clause(&[a.negative(), b.negative()]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! let (va, vb) = (s.value(a).unwrap(), s.value(b).unwrap());
//! assert!(va != vb);
//! ```

use std::fmt;

/// A boolean variable, identified by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BVar(u32);

impl BVar {
    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given polarity.
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A literal: a boolean variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// `true` for a positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "b{}", self.0 >> 1)
        } else {
            write!(f, "~b{}", self.0 >> 1)
        }
    }
}

/// Result of a [`SatSolver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with
    /// [`SatSolver::value`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was reached.
    Unknown,
}

const INVALID: u32 = u32::MAX;

/// First clause-DB reduction happens after this many learned clauses.
const REDUCE_FIRST: u64 = 300;
/// Each subsequent reduction waits this much longer (linear ramp,
/// glucose's increment). Long-lived incremental solvers accrete
/// theory-lemma clauses across checks, so the ramp must stay shallow
/// or propagation drowns in a bloated learned DB.
const REDUCE_STEP: u64 = 100;
/// Learned clauses with LBD at or below this are "glue" (they connect
/// few decision levels) and are never removed.
const GLUE_LBD: u32 = 2;

struct ClauseInfo {
    lits: Vec<Lit>,
    /// Learned by conflict analysis or a theory hook (eligible for DB
    /// reduction), as opposed to a problem clause from `add_clause`.
    learned: bool,
    /// Literal block distance at learning time: the number of distinct
    /// decision levels among the literals. Low LBD predicts reuse.
    lbd: u32,
}

/// Response of a [`TheoryHook`] to a complete boolean assignment.
#[derive(Clone, Debug)]
pub enum TheoryResponse {
    /// The assignment is consistent with the theory: search ends with
    /// [`SatResult::Sat`].
    Sat,
    /// The assignment is theory-inconsistent. The clause must be over
    /// existing variables with every literal false under the current
    /// assignment; it is learned (with an LBD tag) and the search
    /// backjumps past it and continues in place.
    Conflict(Vec<Lit>),
    /// The theory gave up on this assignment (incomplete check or
    /// exhausted budget). The search returns [`SatResult::Sat`] and
    /// the caller distinguishes a real model from a pause by its own
    /// state.
    Pause,
}

/// Theory callback for online DPLL(T): consulted by
/// [`SatSolver::solve_with_theory`] whenever the search reaches a
/// complete assignment, *before* declaring it a model.
pub trait TheoryHook {
    /// Judges the solver's current complete assignment (read it with
    /// [`SatSolver::value`]).
    fn check_model(&mut self, solver: &SatSolver) -> TheoryResponse;
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// See the [crate documentation](crate) for an example.
pub struct SatSolver {
    clauses: Vec<ClauseInfo>,
    /// Watch lists indexed by literal code: clauses watching that literal.
    watches: Vec<Vec<u32>>,
    /// Assignment: 0 = unassigned, 1 = true, 2 = false.
    assign: Vec<u8>,
    /// Saved phase for decisions.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    ok: bool,
    conflict_limit: Option<u64>,
    conflicts: u64,
    propagations: u64,
    learned: u64,
    restarts: u64,
    /// Learned-clause size aggregate (count, sum, and per-solve-call
    /// min/max), kept as plain integers so the hot learning path never
    /// touches the metrics registry; flushed once per solve call.
    lsz_sum: u64,
    lsz_min: u64,
    lsz_max: u64,
    assumption_core: Vec<Lit>,
    db_reductions: u64,
    /// Alive-learned-clause count that triggers a DB reduction (the
    /// threshold ramps by [`REDUCE_STEP`] per reduction performed).
    /// Keying on the *alive* count rather than the cumulative learned
    /// counter matters for long-lived incremental solvers: theory
    /// lemmas accrete across checks, and a cumulative trigger lets the
    /// surviving DB ratchet upward between ever-rarer reductions.
    /// Deterministic solver state (never wall time), so reduction
    /// points are identical across reruns.
    reduce_first: u64,
    /// Per-reduction ramp added to [`Self::reduce_first`]; a struct
    /// field (not the [`REDUCE_STEP`] const) so tests can force tiny,
    /// frequent reductions.
    reduce_step: u64,
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            ok: true,
            conflict_limit: None,
            conflicts: 0,
            propagations: 0,
            learned: 0,
            restarts: 0,
            lsz_sum: 0,
            lsz_min: u64::MAX,
            lsz_max: 0,
            assumption_core: Vec::new(),
            db_reductions: 0,
            reduce_first: REDUCE_FIRST,
            reduce_step: REDUCE_STEP,
        }
    }

    /// Creates a fresh boolean variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(self.assign.len() as u32);
        self.assign.push(0);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(INVALID);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of conflicts encountered so far (for statistics).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of unit propagations performed (for statistics).
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Number of clauses learned by conflict analysis so far (for
    /// statistics). Learned clauses persist across solve calls, so
    /// this grows monotonically over an incremental session.
    pub fn num_learned(&self) -> u64 {
        self.learned
    }

    /// Number of search restarts performed so far (for statistics).
    pub fn num_restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of clauses currently stored (problem + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of clause-database reductions performed so far (for
    /// statistics).
    pub fn num_db_reductions(&self) -> u64 {
        self.db_reductions
    }

    /// Number of learned clauses currently alive in the database
    /// (unlike [`num_learned`](Self::num_learned), this shrinks when
    /// DB reduction removes clauses).
    pub fn learned_db_size(&self) -> usize {
        self.clauses.iter().filter(|c| c.learned).count()
    }

    /// Caps the number of conflicts a single [`solve`](Self::solve)
    /// may spend; exceeded budgets yield [`SatResult::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (adding is then a no-op).
    ///
    /// Duplicate literals are removed; tautologies are ignored.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Restart search state: learned state is kept, trail is reset,
        // because callers add clauses between solve calls.
        self.backtrack_to(0);
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        // tautology?
        if c.windows(2).any(|w| w[0] == w[1].negated()) {
            return true;
        }
        // remove literals false at level 0, detect satisfied clause
        c.retain(|&l| self.lit_value(l) != Some(false) || self.level[l.var().index()] != 0);
        if c.iter().any(|&l| self.lit_value(l) == Some(true) && self.level[l.var().index()] == 0) {
            return true;
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if self.lit_value(c[0]) == Some(false) {
                    self.ok = false;
                    return false;
                }
                if self.lit_value(c[0]).is_none() {
                    self.enqueue(c[0], INVALID);
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[c[0].code()].push(idx);
                self.watches[c[1].code()].push(idx);
                self.clauses.push(ClauseInfo { lits: c, learned: false, lbd: 0 });
                true
            }
        }
    }

    /// The current value of a variable. After [`SatResult::Sat`], every
    /// variable is assigned.
    pub fn value(&self, v: BVar) -> Option<bool> {
        match self.assign[v.index()] {
            1 => Some(true),
            2 => Some(false),
            _ => None,
        }
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.lit_value(l).is_none());
        let v = l.var().index();
        self.assign[v] = if l.is_positive() { 1 } else { 2 };
        self.phase[v] = l.is_positive();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn backtrack_to(&mut self, level: usize) {
        if self.trail_lim.len() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for &l in &self.trail[lim..] {
            self.assign[l.var().index()] = 0;
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len().min(self.qhead.min(lim));
        self.qhead = lim.min(self.trail.len());
    }

    /// Unit propagation; returns a conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let falsified = l.negated();
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                let (w0, w1) = {
                    let c = &self.clauses[ci as usize];
                    (c.lits[0], c.lits[1])
                };
                // Ensure falsified literal is at position 1.
                if w0 == falsified {
                    self.clauses[ci as usize].lits.swap(0, 1);
                }
                let first = self.clauses[ci as usize].lits[0];
                debug_assert_eq!(self.clauses[ci as usize].lits[1], falsified);
                let _ = (w0, w1);
                if self.lit_value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // search replacement watch
                let mut moved = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let cand = self.clauses[ci as usize].lits[k];
                    if self.lit_value(cand) != Some(false) {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[cand.code()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // clause is unit or conflicting
                if self.lit_value(first) == Some(false) {
                    // conflict: restore remaining watches
                    self.watches[falsified.code()].extend_from_slice(&watch_list[..]);
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            let existing = std::mem::take(&mut self.watches[falsified.code()]);
            watch_list.extend(existing);
            self.watches[falsified.code()] = watch_list;
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backtrack level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, usize) {
        let mut learned: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause = conflict;
        let mut trail_idx = self.trail.len();
        let decision_level = self.trail_lim.len() as u32;

        loop {
            let lits: Vec<Lit> = self.clauses[clause as usize].lits.clone();
            let start = if p.is_none() { 0 } else { 1 };
            for &q in &lits[start..] {
                let v = q.var().index();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] == decision_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // pick next literal to resolve from trail
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found above").var().index();
            seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.expect("found above").negated();
                break;
            }
            clause = self.reason[pv];
            debug_assert_ne!(clause, INVALID, "resolved literal must have a reason");
            // skip position 0 of reason clause (the propagated literal)
        }

        // Move a max-level literal into position 1: it becomes the
        // second watch, so after backjumping the clause is unit on
        // learned[0] and the watches stay valid without rescanning.
        if learned.len() > 1 {
            let mut mi = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var().index()] > self.level[learned[mi].var().index()] {
                    mi = i;
                }
            }
            learned.swap(1, mi);
        }
        // backtrack level = max level among learned[1..] (now at [1])
        let bt = learned
            .get(1)
            .map(|l| self.level[l.var().index()] as usize)
            .unwrap_or(0);
        (learned, bt)
    }

    /// Literal block distance: the number of distinct non-zero
    /// decision levels among `lits`. Must be computed while those
    /// literals are still assigned (before backjumping).
    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().index()])
            .filter(|&lv| lv > 0)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn limit_exceeded(&self, start_conflicts: u64) -> bool {
        self.conflict_limit
            .map_or(false, |limit| self.conflicts - start_conflicts > limit)
    }

    fn record_learned(&mut self, lits: &[Lit]) {
        self.learned += 1;
        let sz = lits.len() as u64;
        self.lsz_sum += sz;
        self.lsz_min = self.lsz_min.min(sz);
        self.lsz_max = self.lsz_max.max(sz);
    }

    /// Runs a clause-DB reduction if the number of learned clauses
    /// currently alive has crossed the ramping threshold. Only call at
    /// decision level 0 with propagation complete.
    fn maybe_reduce_db(&mut self) {
        let alive = self.clauses.iter().filter(|c| c.learned).count() as u64;
        if alive < self.reduce_first + self.reduce_step * self.db_reductions {
            return;
        }
        self.reduce_db();
    }

    /// Glucose-style reduction: removes the worse half of the
    /// removable learned clauses, ranked by (LBD, size, age). Binary
    /// clauses, glue clauses (LBD ≤ [`GLUE_LBD`]), problem clauses,
    /// and clauses locked as the reason of a current assignment all
    /// survive. The ranking and the trigger depend only on
    /// deterministic solver state, so reduction points replay
    /// identically across reruns.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce_db needs decision level 0");
        debug_assert_eq!(self.qhead, self.trail.len(), "reduce_db needs full propagation");
        self.db_reductions += 1;
        let mut locked = vec![false; self.clauses.len()];
        for &l in &self.trail {
            let r = self.reason[l.var().index()];
            if r != INVALID {
                locked[r as usize] = true;
            }
        }
        let mut removable: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learned && !locked[i as usize] && c.lits.len() > 2 && c.lbd > GLUE_LBD
            })
            .collect();
        removable.sort_by_key(|&i| {
            let c = &self.clauses[i as usize];
            (c.lbd, c.lits.len(), i)
        });
        let keep = removable.len() - removable.len() / 2;
        if removable[keep..].is_empty() {
            return;
        }
        let mut to_drop = vec![false; self.clauses.len()];
        for &i in &removable[keep..] {
            to_drop[i as usize] = true;
        }
        // Compact the clause vector; remap surviving indices.
        let mut remap: Vec<u32> = vec![INVALID; self.clauses.len()];
        let old = std::mem::take(&mut self.clauses);
        let mut kept: Vec<ClauseInfo> = Vec::with_capacity(keep);
        for (i, c) in old.into_iter().enumerate() {
            if to_drop[i] {
                continue;
            }
            remap[i] = kept.len() as u32;
            kept.push(c);
        }
        self.clauses = kept;
        // Rebuild the watch lists: every clause still watches its
        // first two literals, so the watch invariant is preserved.
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            self.watches[c.lits[0].code()].push(i as u32);
            self.watches[c.lits[1].code()].push(i as u32);
        }
        // Reasons of assigned variables are locked and survive; any
        // other stored reason is stale and must not leak a remapped
        // index.
        for v in 0..self.reason.len() {
            if self.assign[v] != 0 && self.reason[v] != INVALID {
                self.reason[v] = remap[self.reason[v] as usize];
                debug_assert_ne!(self.reason[v], INVALID, "locked reason dropped");
            } else {
                self.reason[v] = INVALID;
            }
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under_assumptions(&[])
    }

    /// Solves the current clause set under the given assumption
    /// literals, MiniSat-style: each assumption is decided at its own
    /// pseudo-decision level before any search decision, so learned
    /// clauses, activity, and watcher state all survive the call and
    /// are reused by later calls.
    ///
    /// An `Unsat` answer that depends on the assumptions does **not**
    /// poison the solver: drop or change the assumptions and solve
    /// again. [`assumption_core`](Self::assumption_core) then holds a
    /// subset of the assumptions that is jointly inconsistent with the
    /// clause set (the *final conflict*). An empty core means the
    /// clause set is unsatisfiable regardless of assumptions.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_instrumented(assumptions, None)
    }

    /// Like [`solve_under_assumptions`](Self::solve_under_assumptions),
    /// but consults `hook` at every complete assignment (online
    /// DPLL(T)): theory conflicts are learned in-search and the search
    /// backjumps and continues instead of returning. `Sat` here means
    /// the hook accepted the final assignment *or* asked for a pause —
    /// the caller tells those apart from the hook's own state.
    pub fn solve_with_theory(
        &mut self,
        assumptions: &[Lit],
        hook: &mut dyn TheoryHook,
    ) -> SatResult {
        self.solve_instrumented(assumptions, Some(hook))
    }

    fn solve_instrumented<'h>(
        &mut self,
        assumptions: &[Lit],
        mut hook: Option<&mut (dyn TheoryHook + 'h)>,
    ) -> SatResult {
        use linarb_trace::{metrics, Level};
        let mut span = linarb_trace::span(Level::Debug, "sat", "sat.solve");
        if !span.active() {
            return self.search(assumptions, hook.as_deref_mut());
        }
        let before = (self.conflicts, self.propagations, self.learned, self.restarts);
        self.lsz_min = u64::MAX;
        self.lsz_max = 0;
        let lsz_sum0 = self.lsz_sum;
        let learned0 = self.learned;
        let reductions0 = self.db_reductions;
        let result = self.search(assumptions, hook.as_deref_mut());
        let d_conflicts = self.conflicts - before.0;
        let d_props = self.propagations - before.1;
        let d_learned = self.learned - before.2;
        let d_restarts = self.restarts - before.3;
        metrics::counter("sat.conflicts", d_conflicts);
        metrics::counter("sat.propagations", d_props);
        metrics::counter("sat.restarts", d_restarts);
        metrics::counter("sat.db_reductions", self.db_reductions - reductions0);
        // Distribution (not just the total): how hard individual
        // solver calls are — the tail is what profiles can't show.
        metrics::histogram("sat.solve_conflicts", d_conflicts);
        if d_learned > 0 {
            metrics::histogram_bulk(
                "sat.learned_size",
                self.learned - learned0,
                self.lsz_sum - lsz_sum0,
                self.lsz_min,
                self.lsz_max,
            );
        }
        span.record("result", format!("{result:?}"));
        span.record("conflicts", d_conflicts);
        span.record("propagations", d_props);
        span.record("learned", d_learned);
        span.record("restarts", d_restarts);
        result
    }

    /// First-UIP learning from the conflicting clause `ci` at decision
    /// level > 0: analyze, backjump, install and assert the learned
    /// clause. Returns `false` if the clause set became unsatisfiable.
    fn handle_conflict(&mut self, ci: u32) -> bool {
        let (learned, bt) = self.analyze(ci);
        let lbd = self.lbd_of(&learned);
        self.backtrack_to(bt);
        self.var_inc /= 0.95;
        self.record_learned(&learned);
        match learned.len() {
            1 => {
                if self.lit_value(learned[0]) == Some(false) {
                    self.ok = false;
                    return false;
                }
                if self.lit_value(learned[0]).is_none() {
                    self.enqueue(learned[0], INVALID);
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[learned[0].code()].push(idx);
                self.watches[learned[1].code()].push(idx);
                let unit = learned[0];
                self.clauses.push(ClauseInfo { lits: learned, learned: true, lbd });
                self.enqueue(unit, idx);
            }
        }
        true
    }

    /// Installs a theory conflict clause (every literal false under
    /// the current complete assignment), learns it with its LBD, and
    /// backjumps so the search continues past the refuted assignment.
    /// Returns `false` if the clause set became unsatisfiable.
    fn learn_theory_conflict(&mut self, mut clause: Vec<Lit>) -> bool {
        debug_assert!(
            clause.iter().all(|&l| self.lit_value(l) == Some(false)),
            "theory conflict clause must be falsified by the current assignment"
        );
        // Literals false at level 0 are permanently false.
        clause.retain(|&l| self.level[l.var().index()] > 0);
        if clause.is_empty() {
            self.ok = false;
            return false;
        }
        // Highest decision level to position 0, second-highest to 1
        // (stable sort: ties keep the theory's deterministic order),
        // so the watches land on the right literals.
        clause.sort_by_key(|&l| std::cmp::Reverse(self.level[l.var().index()]));
        let lbd = self.lbd_of(&clause);
        self.var_inc /= 0.95;
        self.record_learned(&clause);
        if clause.len() == 1 {
            self.backtrack_to(0);
            if self.lit_value(clause[0]) == Some(false) {
                self.ok = false;
                return false;
            }
            if self.lit_value(clause[0]).is_none() {
                self.enqueue(clause[0], INVALID);
            }
            return true;
        }
        let top = self.level[clause[0].var().index()] as usize;
        let second = self.level[clause[1].var().index()] as usize;
        let first = clause[0];
        let idx = self.clauses.len() as u32;
        self.watches[clause[0].code()].push(idx);
        self.watches[clause[1].code()].push(idx);
        self.clauses.push(ClauseInfo { lits: clause, learned: true, lbd });
        if second < top {
            // Unit after backjumping below the top level.
            self.backtrack_to(second);
            self.enqueue(first, idx);
            true
        } else {
            // Two or more literals at the top level: the clause is
            // still conflicting there, so resolve it with ordinary
            // first-UIP analysis.
            self.backtrack_to(top);
            self.handle_conflict(idx)
        }
    }

    fn search<'h>(
        &mut self,
        assumptions: &[Lit],
        mut hook: Option<&mut (dyn TheoryHook + 'h)>,
    ) -> SatResult {
        self.assumption_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        self.maybe_reduce_db();
        let start_conflicts = self.conflicts;
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;

        loop {
            if let Some(ci) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.limit_exceeded(start_conflicts) {
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                if !self.handle_conflict(ci) {
                    return SatResult::Unsat;
                }
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit = restart_limit + restart_limit / 2;
                    self.restarts += 1;
                    self.backtrack_to(0);
                    self.maybe_reduce_db();
                    continue;
                }
                // establish pending assumptions as pseudo-decisions
                if self.trail_lim.len() < assumptions.len() {
                    let a = assumptions[self.trail_lim.len()];
                    match self.lit_value(a) {
                        Some(true) => {
                            // already implied: dummy level keeps the
                            // level/assumption-index correspondence
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.assumption_core = self.analyze_final(a);
                            self.backtrack_to(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, INVALID);
                        }
                    }
                    continue;
                }
                // decide
                match self.pick_branch() {
                    None => {
                        // Complete assignment: let the theory judge it
                        // before declaring a model.
                        let response = match hook.as_deref_mut() {
                            None => return SatResult::Sat,
                            Some(h) => h.check_model(self),
                        };
                        match response {
                            TheoryResponse::Sat | TheoryResponse::Pause => {
                                return SatResult::Sat;
                            }
                            TheoryResponse::Conflict(clause) => {
                                self.conflicts += 1;
                                conflicts_since_restart += 1;
                                if self.limit_exceeded(start_conflicts) {
                                    self.backtrack_to(0);
                                    return SatResult::Unknown;
                                }
                                if !self.learn_theory_conflict(clause) {
                                    return SatResult::Unsat;
                                }
                            }
                        }
                    }
                    Some(v) => {
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.index()]);
                        self.enqueue(lit, INVALID);
                    }
                }
            }
        }
    }

    /// After an assumption-dependent `Unsat` from
    /// [`solve_under_assumptions`](Self::solve_under_assumptions): a
    /// subset of the assumptions whose conjunction already contradicts
    /// the clause set. Empty when the last `Unsat` was unconditional.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.assumption_core
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `failed` is
    /// an assumption whose complement is implied by the clauses plus
    /// the assumptions established so far. Walks the trail backwards,
    /// expanding propagation reasons, until only pseudo-decisions
    /// (assumptions) remain — those, plus `failed` itself, form the
    /// core. Level-0 facts are unconditional and excluded.
    fn analyze_final(&self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.trail_lim.is_empty() {
            return core;
        }
        let mut seen = vec![false; self.num_vars()];
        seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !seen[v] {
                continue;
            }
            let r = self.reason[v];
            if r == INVALID {
                // a pseudo-decision: an assumption the conflict uses
                core.push(l);
            } else {
                // position 0 is the propagated literal; the rest are
                // the antecedents to expand
                for &q in &self.clauses[r as usize].lits[1..] {
                    if self.level[q.var().index()] > 0 {
                        seen[q.var().index()] = true;
                    }
                }
            }
        }
        core
    }

    fn pick_branch(&self) -> Option<BVar> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == 0 {
                match best {
                    Some((_, a)) if a >= self.activity[v] => {}
                    _ => best = Some((v, self.activity[v])),
                }
            }
        }
        best.map(|(v, _)| BVar(v as u32))
    }
}

impl fmt::Debug for SatSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SatSolver {{ vars: {}, clauses: {}, conflicts: {} }}",
            self.num_vars(),
            self.clauses.len(),
            self.conflicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_satisfies(s: &SatSolver, clauses: &[Vec<Lit>]) -> bool {
        clauses.iter().all(|c| {
            c.iter().any(|&l| s.value(l.var()) == Some(l.is_positive()))
        })
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert!(!s.add_clause(&[a.negative()]) || s.solve() == SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.negative()]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b) encoded in CNF, plus forcing units
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.add_clause(&[a.negative(), b.negative()]);
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_i_h means pigeon i in hole h
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..6 {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * 2 + h];
        for i in 0..3 {
            s.add_clause(&[p(i, 0).positive(), p(i, 1).positive()]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[p(i, h).negative(), p(j, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_sat() {
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..9 {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * 3 + h];
        let mut all = vec![];
        for i in 0..3 {
            let c = vec![p(i, 0).positive(), p(i, 1).positive(), p(i, 2).positive()];
            s.add_clause(&c);
            all.push(c);
        }
        for h in 0..3 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    let c = vec![p(i, h).negative(), p(j, h).negative()];
                    s.add_clause(&c);
                    all.push(c);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(model_satisfies(&s, &all));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        // block current model repeatedly; 7 models of 3 vars satisfy the clause
        let mut count = 0;
        loop {
            if s.solve() != SatResult::Sat {
                break;
            }
            count += 1;
            assert!(count <= 7, "too many models");
            let block: Vec<Lit> = [a, b, c]
                .iter()
                .map(|&v| v.lit(!s.value(v).unwrap()))
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 7);
    }

    #[test]
    fn php_4_3_unsat_exercises_learning() {
        let n = 4usize;
        let m = 3usize;
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..n * m {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * m + h];
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|h| p(i, h).positive()).collect();
            s.add_clause(&c);
        }
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[p(i, h).negative(), p(j, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.num_conflicts() > 0);
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        // php 7/6 with a conflict limit of 1 should bail out
        let n = 7usize;
        let m = 6usize;
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..n * m {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * m + h];
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|h| p(i, h).positive()).collect();
            s.add_clause(&c);
        }
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[p(i, h).negative(), p(j, h).negative()]);
                }
            }
        }
        s.set_conflict_limit(Some(1));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve_under_assumptions(&[a.negative()]), SatResult::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve_under_assumptions(&[b.negative()]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn conflicting_assumptions_do_not_poison_solver() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        // a and ~b contradict a -> b, but only under assumptions
        let r = s.solve_under_assumptions(&[a.positive(), b.negative()]);
        assert_eq!(r, SatResult::Unsat);
        let core = s.assumption_core().to_vec();
        assert!(!core.is_empty(), "assumption-dependent unsat needs a core");
        assert!(core.contains(&a.positive()) && core.contains(&b.negative()));
        // the solver must remain usable: same clauses, weaker assumptions
        assert_eq!(s.solve_under_assumptions(&[a.positive()]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn directly_contradictory_assumptions() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        let r = s.solve_under_assumptions(&[a.positive(), a.negative()]);
        assert_eq!(r, SatResult::Unsat);
        let core = s.assumption_core();
        assert!(core.contains(&a.positive()) && core.contains(&a.negative()));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn final_conflict_core_is_minimal_subset() {
        // chain a -> b -> c; assuming {a, d, ~c} fails, and the core
        // must not mention the irrelevant assumption d.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[b.negative(), c.positive()]);
        let r = s.solve_under_assumptions(&[a.positive(), d.positive(), c.negative()]);
        assert_eq!(r, SatResult::Unsat);
        let core = s.assumption_core().to_vec();
        assert!(core.contains(&a.positive()), "core {core:?}");
        assert!(core.contains(&c.negative()), "core {core:?}");
        assert!(!core.contains(&d.positive()), "irrelevant assumption in core {core:?}");
        // and the core itself must be unsat when re-assumed
        assert_eq!(s.solve_under_assumptions(&core), SatResult::Unsat);
    }

    #[test]
    fn unconditional_unsat_reports_empty_core() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive()]);
        s.add_clause(&[a.negative()]);
        assert_eq!(s.solve_under_assumptions(&[b.positive()]), SatResult::Unsat);
        assert!(s.assumption_core().is_empty());
    }

    #[test]
    fn state_reuse_across_many_calls() {
        // php 4/3 with activation literals g_h guarding "hole h is
        // usable": repeated calls under different guard sets reuse
        // learned clauses — conflicts and learned counts must be
        // monotone, and clauses learned in earlier calls must not be
        // relearned wholesale in later identical calls.
        let n = 4usize;
        let m = 3usize;
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..n * m {
            v.push(s.new_var());
        }
        let guards: Vec<BVar> = (0..m).map(|_| s.new_var()).collect();
        let p = |i: usize, h: usize| v[i * m + h];
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|h| p(i, h).positive()).collect();
            s.add_clause(&c);
        }
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    // guarded mutual exclusion: only active when g_h
                    s.add_clause(&[
                        guards[h].negative(),
                        p(i, h).negative(),
                        p(j, h).negative(),
                    ]);
                }
            }
        }
        let all: Vec<Lit> = guards.iter().map(|g| g.positive()).collect();
        // call 1: all holes exclusive -> unsat (pigeonhole)
        assert_eq!(s.solve_under_assumptions(&all), SatResult::Unsat);
        let conflicts1 = s.num_conflicts();
        let learned1 = s.num_learned();
        assert!(learned1 > 0, "pigeonhole must learn clauses");
        // call 2: identical query; learned clauses make it cheaper
        assert_eq!(s.solve_under_assumptions(&all), SatResult::Unsat);
        let conflicts2 = s.num_conflicts() - conflicts1;
        assert!(
            conflicts2 <= conflicts1,
            "second identical call must not be harder: {conflicts2} vs {conflicts1}"
        );
        // call 3: relax one hole -> sat, state still consistent
        assert_eq!(
            s.solve_under_assumptions(&all[..m - 1]),
            SatResult::Sat
        );
        // call 4: back to the full query, still unsat
        assert_eq!(s.solve_under_assumptions(&all), SatResult::Unsat);
        assert!(s.num_learned() >= learned1);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use linarb_testutil::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(0xC0FFEE);
        for round in 0..200 {
            let nvars = rng.gen_range(1..=8usize);
            let nclauses = rng.gen_range(1..=24usize);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            let mut s = SatSolver::new();
            let vars: Vec<BVar> = (0..nvars).map(|_| s.new_var()).collect();
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=3usize);
                let c: Vec<Lit> = (0..len)
                    .map(|_| vars[rng.gen_range(0..nvars)].lit(rng.gen_bool(0.5)))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            // brute force
            let mut brute_sat = false;
            for bits in 0..(1u32 << nvars) {
                let assign = |v: BVar| bits >> v.index() & 1 == 1;
                if clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| assign(l.var()) == l.is_positive()))
                {
                    brute_sat = true;
                    break;
                }
            }
            let res = s.solve();
            if brute_sat {
                assert_eq!(res, SatResult::Sat, "round {round}");
                assert!(model_satisfies(&s, &clauses), "round {round} bad model");
            } else {
                assert_eq!(res, SatResult::Unsat, "round {round}");
            }
        }
    }

    #[test]
    fn random_assumptions_agree_with_unit_clauses() {
        // solve_under_assumptions(A) must classify exactly like a
        // fresh solver with A added as unit clauses — across repeated
        // incremental calls on the same solver.
        use linarb_testutil::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(0xA55);
        for round in 0..100 {
            let nvars = rng.gen_range(2..=7usize);
            let nclauses = rng.gen_range(1..=18usize);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            let mut inc = SatSolver::new();
            let vars: Vec<BVar> = (0..nvars).map(|_| inc.new_var()).collect();
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=3usize);
                let c: Vec<Lit> = (0..len)
                    .map(|_| vars[rng.gen_range(0..nvars)].lit(rng.gen_bool(0.5)))
                    .collect();
                clauses.push(c.clone());
                inc.add_clause(&c);
            }
            // several assumption queries against the same solver
            for _ in 0..4 {
                let nass = rng.gen_range(0..=nvars);
                let assumptions: Vec<Lit> = (0..nass)
                    .map(|_| vars[rng.gen_range(0..nvars)].lit(rng.gen_bool(0.5)))
                    .collect();
                let mut fresh = SatSolver::new();
                let fvars: Vec<BVar> = (0..nvars).map(|_| fresh.new_var()).collect();
                for c in &clauses {
                    let fc: Vec<Lit> = c
                        .iter()
                        .map(|l| fvars[l.var().index()].lit(l.is_positive()))
                        .collect();
                    fresh.add_clause(&fc);
                }
                for a in &assumptions {
                    fresh.add_clause(&[fvars[a.var().index()].lit(a.is_positive())]);
                }
                let ri = inc.solve_under_assumptions(&assumptions);
                let rf = fresh.solve();
                assert_eq!(ri, rf, "round {round} assumptions {assumptions:?}");
                if ri == SatResult::Sat {
                    assert!(model_satisfies(&inc, &clauses), "round {round}");
                    for a in &assumptions {
                        assert_eq!(
                            inc.value(a.var()),
                            Some(a.is_positive()),
                            "assumption not honored in model, round {round}"
                        );
                    }
                } else {
                    // the reported core must itself be unsat
                    let core = inc.assumption_core().to_vec();
                    assert_eq!(
                        inc.solve_under_assumptions(&core),
                        SatResult::Unsat,
                        "round {round}: core {core:?} not unsat"
                    );
                }
            }
        }
    }

    #[test]
    fn lbd_counts_distinct_nonzero_levels() {
        let mut s = SatSolver::new();
        let vars: Vec<BVar> = (0..6).map(|_| s.new_var()).collect();
        // Fabricate an assignment: levels 0, 1, 1, 2, 3, 3.
        s.assign = vec![1; 6];
        s.level = vec![0, 1, 1, 2, 3, 3];
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        // Level 0 is excluded; {1, 2, 3} remain.
        assert_eq!(s.lbd_of(&lits), 3);
        assert_eq!(s.lbd_of(&lits[..3]), 1);
        assert_eq!(s.lbd_of(&lits[..1]), 0);
    }

    #[test]
    fn learned_clauses_carry_lbd_tags() {
        // Any instance that learns clauses must tag them with an LBD
        // in [1, size] (a learned clause has at least its UIP level).
        let n = 4usize;
        let m = 3usize;
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..n * m {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * m + h];
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|h| p(i, h).positive()).collect();
            s.add_clause(&c);
        }
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[p(i, h).negative(), p(j, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        let learned: Vec<&ClauseInfo> = s.clauses.iter().filter(|c| c.learned).collect();
        assert!(!learned.is_empty(), "pigeonhole must store learned clauses");
        for c in &learned {
            assert!(c.lbd >= 1, "learned clause with zero LBD");
            assert!(
                (c.lbd as usize) <= c.lits.len(),
                "LBD {} exceeds clause size {}",
                c.lbd,
                c.lits.len()
            );
        }
        for c in s.clauses.iter().filter(|c| !c.learned) {
            assert_eq!(c.lbd, 0, "problem clauses are untagged");
        }
    }

    #[test]
    fn db_reduction_is_deterministic_and_preserves_answers() {
        use linarb_testutil::XorShiftRng;
        // Force frequent reductions with a tiny threshold, then check
        // (a) verdicts and models still agree with brute force and
        // (b) two identical runs replay the identical trajectory.
        let run = |seed: u64| -> (SatSolver, Vec<Vec<Lit>>, Vec<SatResult>) {
            let mut rng = XorShiftRng::seed_from_u64(seed);
            let mut s = SatSolver::new();
            // reduce early and often
            s.reduce_first = 5;
            s.reduce_step = 2;
            let nvars = 9usize;
            let vars: Vec<BVar> = (0..nvars).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            let mut verdicts = Vec::new();
            // Incremental rounds so reductions interleave with solving.
            for _ in 0..30 {
                for _ in 0..4 {
                    let len = rng.gen_range(2..=3usize);
                    let c: Vec<Lit> = (0..len)
                        .map(|_| vars[rng.gen_range(0..nvars)].lit(rng.gen_bool(0.5)))
                        .collect();
                    clauses.push(c.clone());
                    s.add_clause(&c);
                }
                verdicts.push(s.solve());
            }
            (s, clauses, verdicts)
        };
        for seed in [0xDEAD_BEEFu64, 0x5EED, 42] {
            let (s1, clauses, verdicts1) = run(seed);
            let (s2, _, verdicts2) = run(seed);
            // determinism: identical trajectory statistics and state
            assert_eq!(verdicts1, verdicts2, "seed {seed:#x}");
            assert_eq!(s1.num_conflicts(), s2.num_conflicts(), "seed {seed:#x}");
            assert_eq!(s1.num_learned(), s2.num_learned(), "seed {seed:#x}");
            assert_eq!(s1.num_db_reductions(), s2.num_db_reductions(), "seed {seed:#x}");
            assert_eq!(s1.learned_db_size(), s2.learned_db_size(), "seed {seed:#x}");
            assert_eq!(s1.num_clauses(), s2.num_clauses(), "seed {seed:#x}");
            // correctness: final verdict agrees with brute force
            let nvars = 9usize;
            let mut brute_sat = false;
            for bits in 0..(1u32 << nvars) {
                let assign = |v: BVar| bits >> v.index() & 1 == 1;
                if clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| assign(l.var()) == l.is_positive()))
                {
                    brute_sat = true;
                    break;
                }
            }
            let last = *verdicts1.last().unwrap();
            if brute_sat {
                assert_eq!(last, SatResult::Sat, "seed {seed:#x}");
                assert!(model_satisfies(&s1, &clauses), "seed {seed:#x} bad model");
            } else {
                assert_eq!(last, SatResult::Unsat, "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn db_reduction_keeps_glue_binary_and_problem_clauses() {
        let mut s = SatSolver::new();
        let vars: Vec<BVar> = (0..8).map(|_| s.new_var()).collect();
        // One problem clause so watches exist.
        s.add_clause(&[vars[0].positive(), vars[1].positive(), vars[2].positive()]);
        let problem_clauses = s.num_clauses();
        // Hand-install learned clauses with varying LBD.
        for (i, lbd) in [(3usize, 1u32), (4, 2), (5, 7), (6, 8), (7, 9)] {
            let lits = vec![vars[i].positive(), vars[0].negative(), vars[1].negative()];
            let idx = s.clauses.len() as u32;
            s.watches[lits[0].code()].push(idx);
            s.watches[lits[1].code()].push(idx);
            s.clauses.push(ClauseInfo { lits, learned: true, lbd });
        }
        s.reduce_db();
        // Removable set was the three clauses with LBD 7, 8, 9; the
        // worse half (8 and 9, ⌊3/2⌋ = 1... sorted ascending, dropping
        // the top half drops LBD 9) leaves glue and better clauses.
        let alive: Vec<u32> = s.clauses.iter().filter(|c| c.learned).map(|c| c.lbd).collect();
        assert_eq!(alive, vec![1, 2, 7, 8], "worst-LBD clause must go first");
        assert_eq!(s.num_clauses() - s.learned_db_size(), problem_clauses);
        // The solver must still answer correctly after compaction.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    struct ForbidBothTrue {
        a: BVar,
        b: BVar,
        calls: u64,
    }

    impl TheoryHook for ForbidBothTrue {
        fn check_model(&mut self, s: &SatSolver) -> TheoryResponse {
            self.calls += 1;
            if s.value(self.a) == Some(true) && s.value(self.b) == Some(true) {
                TheoryResponse::Conflict(vec![self.a.negative(), self.b.negative()])
            } else {
                TheoryResponse::Sat
            }
        }
    }

    #[test]
    fn theory_hook_conflicts_are_learned_in_search() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        // push the solver toward all-true first
        s.add_clause(&[a.positive()]);
        let mut hook = ForbidBothTrue { a, b, calls: 0 };
        let learned0 = s.num_learned();
        assert_eq!(s.solve_with_theory(&[], &mut hook), SatResult::Sat);
        assert!(hook.calls >= 1);
        assert!(
            !(s.value(a) == Some(true) && s.value(b) == Some(true)),
            "model violates the theory"
        );
        // If the theory ever objected, its clause was learned in-search.
        if hook.calls > 1 {
            assert!(s.num_learned() > learned0);
        }
        // The theory clause is permanent: plain solving respects it too.
        s.add_clause(&[b.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
    }

    struct BlockEverything;

    impl TheoryHook for BlockEverything {
        fn check_model(&mut self, s: &SatSolver) -> TheoryResponse {
            let clause: Vec<Lit> = (0..s.num_vars())
                .map(|v| {
                    let var = BVar(v as u32);
                    var.lit(!s.value(var).unwrap())
                })
                .collect();
            TheoryResponse::Conflict(clause)
        }
    }

    #[test]
    fn theory_hook_rejecting_every_model_yields_unsat() {
        let mut s = SatSolver::new();
        let vars: Vec<BVar> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[vars[0].positive(), vars[1].positive()]);
        let mut hook = BlockEverything;
        assert_eq!(s.solve_with_theory(&[], &mut hook), SatResult::Unsat);
        // 2^4 assignments minus those killed by the problem clause and
        // by subsumption through learning: at most 16 theory conflicts.
        assert!(s.num_conflicts() <= 32);
    }

    struct PauseImmediately;

    impl TheoryHook for PauseImmediately {
        fn check_model(&mut self, _s: &SatSolver) -> TheoryResponse {
            TheoryResponse::Pause
        }
    }

    #[test]
    fn theory_hook_pause_returns_sat_without_learning() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        let learned0 = s.num_learned();
        let mut hook = PauseImmediately;
        assert_eq!(s.solve_with_theory(&[], &mut hook), SatResult::Sat);
        assert_eq!(s.num_learned(), learned0);
    }

    #[test]
    fn theory_hook_respects_assumptions() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        let mut hook = ForbidBothTrue { a, b, calls: 0 };
        assert_eq!(
            s.solve_with_theory(&[a.positive(), b.positive()], &mut hook),
            SatResult::Unsat,
            "theory clause contradicts the assumptions"
        );
        let core = s.assumption_core().to_vec();
        assert!(!core.is_empty());
        // Without the conflicting assumptions: satisfiable again.
        assert_eq!(
            s.solve_with_theory(&[a.positive()], &mut hook),
            SatResult::Sat
        );
        assert_eq!(s.value(b), Some(false));
    }
}

/// Parses a DIMACS CNF document into a fresh solver, returning the
/// solver and the variables in index order.
///
/// # Errors
///
/// Returns a message describing the malformed line.
///
/// ```
/// use linarb_sat::{parse_dimacs, SatResult};
/// let (mut solver, vars) = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")?;
/// assert_eq!(vars.len(), 2);
/// assert_eq!(solver.solve(), SatResult::Sat);
/// # Ok::<(), String>(())
/// ```
pub fn parse_dimacs(text: &str) -> Result<(SatSolver, Vec<BVar>), String> {
    let mut solver = SatSolver::new();
    let mut vars: Vec<BVar> = Vec::new();
    let mut clause: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if line.starts_with('p') {
            let mut parts = line.split_whitespace();
            let (_, fmt) = (parts.next(), parts.next());
            if fmt != Some("cnf") {
                return Err(format!("unsupported DIMACS format line: `{line}`"));
            }
            let nvars: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad variable count in `{line}`"))?;
            while vars.len() < nvars {
                vars.push(solver.new_var());
            }
            continue;
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok
                .parse()
                .map_err(|_| format!("bad literal `{tok}`"))?;
            if n == 0 {
                solver.add_clause(&clause);
                clause.clear();
                continue;
            }
            let idx = n.unsigned_abs() as usize - 1;
            while vars.len() <= idx {
                vars.push(solver.new_var());
            }
            clause.push(vars[idx].lit(n > 0));
        }
    }
    if !clause.is_empty() {
        solver.add_clause(&clause);
    }
    Ok((solver, vars))
}

#[cfg(test)]
mod dimacs_tests {
    use super::*;

    #[test]
    fn parses_and_solves() {
        let (mut s, vars) = parse_dimacs("c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n").unwrap();
        assert_eq!(vars.len(), 3);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(vars[0]), Some(false));
        // clause 1: -2 must hold, so 3 must hold
        assert_eq!(s.value(vars[1]), Some(false));
        assert_eq!(s.value(vars[2]), Some(true));
    }

    #[test]
    fn unsat_instance() {
        let (mut s, _) = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_dimacs("p cnf x 2").is_err());
        assert!(parse_dimacs("1 two 0").is_err());
        assert!(parse_dimacs("p dnf 1 1").is_err());
    }

    #[test]
    fn trailing_clause_without_zero() {
        let (mut s, _) = parse_dimacs("p cnf 2 1\n1 2").unwrap();
        assert_eq!(s.solve(), SatResult::Sat);
    }
}

//! Online DPLL(T) bridge: connects the CDCL core's theory hook
//! ([`linarb_sat::TheoryHook`]) to the LIA theory context through its
//! push/pop trail.
//!
//! The offline loop this replaces tore the theory down after every
//! complete boolean assignment and re-solved the SAT instance from the
//! top. Here the theory context is long-lived: every candidate
//! assignment is judged inside the SAT search under a backtrack mark,
//! theory conflicts become learned clauses on the spot (the search
//! backjumps instead of restarting), and the simplex tableau — rows,
//! interned slack columns, and the current basis — stays warm from one
//! frame to the next.

use crate::budget::Budget;
use crate::theory::{TheoryLia, TheoryVerdict};
use linarb_logic::{Atom, Model};
use linarb_sat::{BVar, Lit, SatSolver, TheoryHook, TheoryResponse};

/// The literal↔atom bridge handed to [`SatSolver::solve_with_theory`].
///
/// At every complete boolean assignment it pushes a theory frame,
/// asserts the induced atom polarities in variable-index order (the
/// index doubling as the theory tag), asks for a verdict, and pops the
/// frame — leaving the tableau warm for the next frame.
pub(crate) struct LiaHook<'a> {
    theory: &'a mut TheoryLia,
    /// Atom ↔ boolean-variable map fixing the assertion order; the
    /// slice index is the theory tag, so cores map back to literals.
    atoms: &'a [(Atom, BVar)],
    budget: &'a Budget,
    /// Model of the accepted assignment, when the search ends `Sat`.
    pub(crate) model: Option<Model>,
    /// Blocking clause for an assignment the theory abandoned
    /// (`Unknown`): the outer loop installs it (guarded by a call
    /// literal in incremental use) and re-solves.
    pub(crate) abandoned: Option<Vec<Lit>>,
    /// Set when the budget tripped before the theory was consulted.
    pub(crate) budget_stop: bool,
    /// Complete assignments judged by the theory in this search.
    pub(crate) models_checked: u64,
}

impl<'a> LiaHook<'a> {
    pub(crate) fn new(
        theory: &'a mut TheoryLia,
        atoms: &'a [(Atom, BVar)],
        budget: &'a Budget,
    ) -> LiaHook<'a> {
        LiaHook {
            theory,
            atoms,
            budget,
            model: None,
            abandoned: None,
            budget_stop: false,
            models_checked: 0,
        }
    }
}

impl TheoryHook for LiaHook<'_> {
    fn check_model(&mut self, sat: &SatSolver) -> TheoryResponse {
        if self.budget.exhausted() {
            self.budget_stop = true;
            return TheoryResponse::Pause;
        }
        self.models_checked += 1;
        let mark = self.theory.set_backtrack_point();
        // True literal of each atom under the current assignment, in
        // tag order; cores index into this.
        let mut lits: Vec<Lit> = Vec::with_capacity(self.atoms.len());
        let mut early: Option<Vec<usize>> = None;
        for (tag, (a, v)) in self.atoms.iter().enumerate() {
            let value = sat.value(*v).expect("full assignment");
            lits.push(v.lit(value));
            let atom = if value { a.clone() } else { a.negate() };
            if let Err(c) = self.theory.assert_atom(&atom, tag) {
                early = Some(c.core());
                break;
            }
        }
        let response = match early {
            Some(core) => {
                TheoryResponse::Conflict(core.iter().map(|&t| lits[t].negated()).collect())
            }
            None => match self.theory.check(self.budget) {
                TheoryVerdict::Feasible(m) => {
                    self.model = Some(m);
                    TheoryResponse::Sat
                }
                TheoryVerdict::Unknown => {
                    self.abandoned = Some(lits.iter().map(|l| l.negated()).collect());
                    TheoryResponse::Pause
                }
                TheoryVerdict::Infeasible { core, .. } => {
                    let clause: Vec<Lit> = if core.is_empty() {
                        lits.iter().map(|l| l.negated()).collect()
                    } else {
                        core.iter().map(|&t| lits[t].negated()).collect()
                    };
                    if clause.is_empty() {
                        // No theory atoms at all yet "infeasible" —
                        // cannot happen (the empty conjunction is
                        // feasible); pause defensively rather than
                        // fabricate an empty conflict.
                        self.abandoned = Some(Vec::new());
                        TheoryResponse::Pause
                    } else {
                        TheoryResponse::Conflict(clause)
                    }
                }
            },
        };
        self.theory.backtrack_to(mark);
        response
    }
}

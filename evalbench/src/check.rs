//! The correctness gate: verdicts against ground truth, certificates
//! against the system, outside every timed span.

use linarb_logic::{ChcSystem, Formula, Interpretation};
use linarb_smt::Budget;
use linarb_solver::{verify_interpretation, DerivationNode, SolveResult};
use linarb_suite::Expected;
use std::time::Duration;

/// Budget for re-verifying one interpretation clause by clause.
const VERIFY_BUDGET: Duration = Duration::from_secs(30);

/// A definite verdict's evidence.
#[derive(Debug)]
pub enum Certificate {
    /// An interpretation claimed to validate every clause.
    Sat(Interpretation),
    /// A derivation claimed to reach a goal violation.
    Unsat(DerivationNode),
}

/// The verdict a solve produced, normalized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable: the program is safe.
    Safe,
    /// Unsatisfiable: the program is unsafe.
    Unsafe,
    /// No answer within the budget.
    Unknown,
}

impl Verdict {
    /// The verdict of a daemon reply (`sat`/`unsat`/anything else).
    pub fn from_wire(s: &str) -> Verdict {
        match s {
            "sat" => Verdict::Safe,
            "unsat" => Verdict::Unsafe,
            _ => Verdict::Unknown,
        }
    }
}

/// The opposite ground truth: the self-test's and `--inject-fault`'s
/// fault, which makes a correct verdict contradict it.
pub fn flipped(e: Expected) -> Expected {
    match e {
        Expected::Safe => Expected::Unsafe,
        Expected::Unsafe => Expected::Safe,
    }
}

/// Splits a solver result into verdict and certificate.
pub fn split(result: SolveResult) -> (Verdict, Option<Certificate>) {
    match result {
        SolveResult::Sat(i) => (Verdict::Safe, Some(Certificate::Sat(i))),
        SolveResult::Unsat(d) => (Verdict::Unsafe, Some(Certificate::Unsat(d))),
        SolveResult::Unknown(_) => (Verdict::Unknown, None),
    }
}

/// `Some(true)` when a definite verdict matches the ground truth,
/// `Some(false)` when it contradicts it, `None` for unknown.
pub fn matches(expected: Expected, verdict: Verdict) -> Option<bool> {
    match verdict {
        Verdict::Safe => Some(expected == Expected::Safe),
        Verdict::Unsafe => Some(expected == Expected::Unsafe),
        Verdict::Unknown => None,
    }
}

/// Whether a certificate holds: the interpretation validates every
/// clause (an inconclusive check counts as a failure), or the
/// derivation replays concretely.
pub fn certificate_holds(sys: &ChcSystem, cert: &Certificate) -> bool {
    match cert {
        Certificate::Sat(interp) => {
            verify_interpretation(sys, interp, &Budget::timeout(VERIFY_BUDGET)) == Some(true)
        }
        Certificate::Unsat(derivation) => derivation.replay(sys),
    }
}

/// Whether a solve's outcome is consistent: a definite verdict must
/// match the ground truth and come with a certificate of its own
/// kind. Unknown passes (it is charged in the timing metrics instead).
/// The certificate itself is checked by [`certificate_holds`].
pub fn consistent(expected: Expected, verdict: Verdict, cert: Option<&Certificate>) -> bool {
    let kind_ok = matches!(
        (verdict, cert),
        (Verdict::Safe, Some(Certificate::Sat(_)))
            | (Verdict::Unsafe, Some(Certificate::Unsat(_)))
            | (Verdict::Unknown, None)
    );
    kind_ok && matches(expected, verdict) != Some(false)
}

/// Corrupts a certificate so that it must fail its check: every
/// predicate is interpreted as `true` (or `false` when `true` is
/// genuinely inductive), and a derivation gains an extra child.
pub fn corrupt(sys: &ChcSystem, cert: &Certificate) -> Certificate {
    match cert {
        Certificate::Sat(interp) => {
            for constant in [Formula::True, Formula::False] {
                let bad: Interpretation = interp.keys().map(|&p| (p, constant.clone())).collect();
                if !certificate_holds(sys, &Certificate::Sat(bad.clone())) {
                    return Certificate::Sat(bad);
                }
            }
            Certificate::Sat(interp.clone())
        }
        Certificate::Unsat(d) => {
            let mut bad = d.clone();
            bad.children.push(d.clone());
            Certificate::Unsat(bad)
        }
    }
}

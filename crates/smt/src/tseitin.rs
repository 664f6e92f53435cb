//! Tseitin transformation: formulas to CNF over atom variables.

use linarb_logic::{Atom, Formula};
use linarb_sat::{BVar, Lit, SatSolver};
use std::collections::HashMap;

/// Encodes [`Formula`]s into a [`SatSolver`], maintaining the mapping
/// between linear atoms and boolean variables.
///
/// Atoms are canonicalized by polarity (leading coefficient positive)
/// so an atom and its integer negation share one boolean variable.
///
/// Subformulas are hash-consed: structurally equal `And`/`Or` (and
/// `True`/`False`) nodes share one gate variable, so re-encoding a
/// formula fragment — the common case when an incremental context
/// re-asserts a predicate interpretation that only partially changed —
/// reuses the existing gates and their clauses instead of growing the
/// solver.
#[derive(Debug, Default)]
pub struct Encoder {
    /// The underlying SAT solver.
    pub sat: SatSolver,
    atom_vars: HashMap<Atom, BVar>,
    /// Interning order, which is also variable-index order (atom
    /// variables are allocated monotonically). Lets [`atoms`](Self::atoms)
    /// iterate in index order without sorting — it runs on every
    /// DPLL(T) round.
    atom_order: Vec<(Atom, BVar)>,
    formula_lits: HashMap<Formula, Lit>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder {
            sat: SatSolver::new(),
            atom_vars: HashMap::new(),
            atom_order: Vec::new(),
            formula_lits: HashMap::new(),
        }
    }

    /// The literal representing `atom` (allocating a variable for its
    /// canonical polarity on first use).
    pub fn atom_lit(&mut self, atom: &Atom) -> Lit {
        let leading_negative = atom
            .expr()
            .terms()
            .next()
            .map(|(_, c)| c.is_negative())
            .unwrap_or(false);
        let (canonical, flipped) = if leading_negative {
            (atom.negate(), true)
        } else {
            (atom.clone(), false)
        };
        let var = match self.atom_vars.get(&canonical) {
            Some(&v) => v,
            None => {
                let v = self.sat.new_var();
                self.atom_order.push((canonical.clone(), v));
                self.atom_vars.insert(canonical, v);
                v
            }
        };
        var.lit(!flipped)
    }

    /// Encodes `f` and returns a literal equivalent to it; the caller
    /// typically asserts it with a unit clause. Structurally equal
    /// subformulas return the same literal (hash-consing).
    pub fn encode(&mut self, f: &Formula) -> Lit {
        // Atoms and negations need no gate; only gate-allocating
        // shapes go through the cache.
        match f {
            Formula::Atom(a) => return self.atom_lit(a),
            Formula::Mod(_) => {
                panic!("Mod atoms must be lowered before encoding (see check_sat)")
            }
            Formula::Not(g) => return self.encode(g).negated(),
            _ => {}
        }
        if let Some(&l) = self.formula_lits.get(f) {
            return l;
        }
        let out = match f {
            Formula::True => {
                let v = self.sat.new_var();
                self.sat.add_clause(&[v.positive()]);
                v.positive()
            }
            Formula::False => {
                let v = self.sat.new_var();
                self.sat.add_clause(&[v.positive()]);
                v.negative()
            }
            Formula::And(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.encode(g)).collect();
                let out = self.sat.new_var().positive();
                // out -> each lit
                for &l in &lits {
                    self.sat.add_clause(&[out.negated(), l]);
                }
                // all lits -> out
                let mut clause: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
                clause.push(out);
                self.sat.add_clause(&clause);
                out
            }
            Formula::Or(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.encode(g)).collect();
                let out = self.sat.new_var().positive();
                // each lit -> out
                for &l in &lits {
                    self.sat.add_clause(&[l.negated(), out]);
                }
                // out -> some lit
                let mut clause: Vec<Lit> = lits.clone();
                clause.push(out.negated());
                self.sat.add_clause(&clause);
                out
            }
            Formula::Atom(_) | Formula::Mod(_) | Formula::Not(_) => unreachable!(),
        };
        self.formula_lits.insert(f.clone(), out);
        out
    }

    /// Iterates over the registered (canonical) atoms and their
    /// boolean variables, in variable-index order. The order is load-
    /// bearing: it fixes the sequence of theory assertions, and with it
    /// the theory's conflict cores and models — iterating the hash map
    /// directly would make whole solver trajectories differ from run
    /// to run.
    pub fn atoms(&self) -> impl Iterator<Item = (&Atom, BVar)> + '_ {
        self.atom_order.iter().map(|(a, v)| (a, *v))
    }

    /// Number of distinct canonical atoms registered.
    pub fn num_atoms(&self) -> usize {
        self.atom_vars.len()
    }

    /// Number of hash-consed gate subformulas registered.
    pub fn num_subformulas(&self) -> usize {
        self.formula_lits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::{LinExpr, Var};
    use linarb_sat::SatResult;

    fn le(i: u32, k: i64) -> Formula {
        Formula::from(Atom::le(
            LinExpr::var(Var::from_index(i)),
            LinExpr::constant(int(k)),
        ))
    }

    #[test]
    fn atom_and_negation_share_variable() {
        let mut enc = Encoder::new();
        let a = Atom::le(LinExpr::var(Var::from_index(0)), LinExpr::constant(int(4)));
        let la = enc.atom_lit(&a);
        let ln = enc.atom_lit(&a.negate());
        assert_eq!(la.var(), ln.var());
        assert_eq!(la, ln.negated());
        assert_eq!(enc.num_atoms(), 1);
    }

    #[test]
    fn encode_and_or_is_satisfiable_consistently() {
        // (a /\ b) \/ ~a : satisfiable; assert root and solve.
        let mut enc = Encoder::new();
        let f = Formula::or(vec![
            Formula::and(vec![le(0, 1), le(1, 1)]),
            Formula::not(le(0, 1)),
        ]);
        let root = enc.encode(&f);
        enc.sat.add_clause(&[root]);
        assert_eq!(enc.sat.solve(), SatResult::Sat);
    }

    #[test]
    fn reencoding_shares_gates_and_variables() {
        let mut enc = Encoder::new();
        let f = Formula::or(vec![
            Formula::and(vec![le(0, 1), le(1, 1)]),
            Formula::not(le(0, 1)),
        ]);
        let l1 = enc.encode(&f);
        let vars = enc.sat.num_vars();
        let gates = enc.num_subformulas();
        // structurally identical formula: same literal, nothing new
        let l2 = enc.encode(&f.clone());
        assert_eq!(l1, l2);
        assert_eq!(enc.sat.num_vars(), vars);
        assert_eq!(enc.num_subformulas(), gates);
        // a formula sharing the And-subtree reuses its gate
        let g = Formula::or(vec![
            Formula::and(vec![le(0, 1), le(1, 1)]),
            le(2, 5),
        ]);
        let before = enc.num_subformulas();
        enc.encode(&g);
        assert_eq!(enc.num_subformulas(), before + 1, "only the new Or gate");
    }

    #[test]
    fn negation_needs_no_gate() {
        let mut enc = Encoder::new();
        let a = le(0, 3);
        let l = enc.encode(&a);
        let n = enc.encode(&Formula::not(a));
        assert_eq!(n, l.negated());
        assert_eq!(enc.num_subformulas(), 0);
    }

    #[test]
    fn encode_contradiction_unsat() {
        // a /\ ~a with the shared-variable canonicalization
        let mut enc = Encoder::new();
        let a = le(0, 4);
        let f = Formula::and(vec![a.clone(), Formula::not(a)]);
        let root = enc.encode(&f);
        enc.sat.add_clause(&[root]);
        assert_eq!(enc.sat.solve(), SatResult::Unsat);
    }
}

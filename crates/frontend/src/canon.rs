//! Canonical forms of CHC systems — the cache key of the serve
//! daemon (DESIGN.md §15).
//!
//! Two systems that differ only by predicate/variable *names*, by
//! clause order, or by positive scaling of atom coefficients must map
//! to the same canonical text (and therefore the same cache key);
//! systems that differ semantically — a perturbed guard constant, an
//! extra clause — must not. The construction:
//!
//! * **Clause-local de Bruijn variables.** Within each clause,
//!   variables are renumbered `x0, x1, …` by first occurrence in a
//!   fixed traversal (body applications, then the constraint, then
//!   the head), so the system-level variable indices and names drop
//!   out.
//! * **Predicate color refinement.** Predicate identities are
//!   replaced by canonical numbers computed by three rounds of
//!   refinement: serialize every clause with the previous round's
//!   predicate labels (round one uses arities only), sort the clause
//!   strings, and re-number predicates by first occurrence in sorted
//!   order. Clause order and predicate names drop out.
//! * **Normalized atoms.** Linear atoms are `e ≤ 0` with
//!   gcd-reduced, floor-tightened coefficients by construction
//!   ([`Atom::le_zero`]), so positive scaling drops out for free.
//! * **Sorted connectives.** `And`/`Or` children are serialized and
//!   then sorted, so conjunct order inside a constraint drops out.
//!
//! The canonical *text* — the sorted clause serialization plus the
//! predicate arity table — is what cache hits compare (the 128-bit
//! FNV key is only the index), so key collisions cannot produce a
//! false cache hit.
//!
//! The scheme is deliberately not a full graph canonization: systems
//! containing distinct predicates whose entire clause neighborhoods
//! serialize identically (self-symmetric systems) may canonicalize
//! differently under reordering. That costs a cache hit, never
//! correctness — every served verdict is re-verified against the
//! submitted system.

use std::collections::HashMap;

use linarb_logic::{
    Atom, ChcSystem, Clause, ClauseHead, ClauseId, Formula, LinExpr, ModAtom, PredApp, PredId, Var,
};

/// The canonical form of a [`ChcSystem`], with the maps needed to
/// carry cached artifacts (interpretations, derivations) between any
/// two systems sharing the form.
#[derive(Clone, Debug)]
pub struct Canon {
    /// 128-bit FNV-1a of [`text`](Self::text), as 32 hex digits.
    pub key: String,
    /// The full canonical serialization (the hash input). Exact-tier
    /// cache hits compare this, not the key.
    pub text: String,
    /// Arity of each canonical predicate, by canonical index.
    pub arities: Vec<usize>,
    /// Canonical predicate index → this system's [`PredId`].
    pub pred_of_canon: Vec<PredId>,
    /// `PredId` index → canonical predicate index.
    pub canon_of_pred: Vec<usize>,
    /// Canonical clause index → this system's [`ClauseId`].
    pub clause_of_canon: Vec<ClauseId>,
    /// `ClauseId` index → canonical clause index.
    pub canon_of_clause: Vec<usize>,
    /// Per canonical clause: canonical variable number → this
    /// system's [`Var`].
    pub clause_vars: Vec<Vec<Var>>,
}

impl Canon {
    /// Whether two canonical forms describe structurally identical
    /// systems (same canonical text, hence interchangeable for cached
    /// artifacts).
    pub fn same_form(&self, other: &Canon) -> bool {
        self.text == other.text
    }
}

/// Clause-local first-occurrence variable numbering.
#[derive(Default)]
struct VarNum {
    map: HashMap<Var, u32>,
    order: Vec<Var>,
}

impl VarNum {
    fn touch(&mut self, v: Var) {
        if !self.map.contains_key(&v) {
            self.map.insert(v, self.order.len() as u32);
            self.order.push(v);
        }
    }

    fn touch_expr(&mut self, e: &LinExpr) {
        for (v, _) in e.terms() {
            self.touch(v);
        }
    }

    fn touch_formula(&mut self, f: &Formula) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => self.touch_expr(a.expr()),
            Formula::Mod(m) => self.touch_expr(m.expr()),
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    self.touch_formula(g);
                }
            }
            Formula::Not(g) => self.touch_formula(g),
        }
    }

    fn touch_app(&mut self, app: &PredApp) {
        for arg in &app.args {
            self.touch_expr(arg);
        }
    }
}

/// Numbers a clause's variables by first occurrence in the canonical
/// traversal: body applications, constraint, head.
fn number_clause_vars(clause: &Clause) -> VarNum {
    let mut vn = VarNum::default();
    for app in &clause.body_preds {
        vn.touch_app(app);
    }
    vn.touch_formula(&clause.constraint);
    match &clause.head {
        ClauseHead::Pred(app) => vn.touch_app(app),
        ClauseHead::Goal(g) => vn.touch_formula(g),
    }
    vn
}

fn ser_expr(e: &LinExpr, vn: &VarNum, out: &mut String) {
    // Terms sorted by canonical variable number, so the system-level
    // index order of the variables drops out.
    let mut terms: Vec<(u32, String)> = e
        .terms()
        .map(|(v, c)| (vn.map[&v], c.to_string()))
        .collect();
    terms.sort();
    for (n, c) in &terms {
        out.push_str(c);
        out.push('x');
        out.push_str(&n.to_string());
        out.push('+');
    }
    out.push_str(&e.constant_term().to_string());
}

fn ser_atom(a: &Atom, vn: &VarNum, out: &mut String) {
    out.push_str("A(");
    ser_expr(a.expr(), vn, out);
    out.push(')');
}

fn ser_mod(m: &ModAtom, vn: &VarNum, out: &mut String) {
    out.push_str("M(");
    ser_expr(m.expr(), vn, out);
    out.push(';');
    out.push_str(&m.modulus().to_string());
    out.push(';');
    out.push_str(&m.residue().to_string());
    out.push(')');
}

fn ser_formula(f: &Formula, vn: &VarNum, out: &mut String) {
    match f {
        Formula::True => out.push('T'),
        Formula::False => out.push('F'),
        Formula::Atom(a) => ser_atom(a, vn, out),
        Formula::Mod(m) => ser_mod(m, vn, out),
        Formula::And(fs) | Formula::Or(fs) => {
            out.push(if matches!(f, Formula::And(_)) { '&' } else { '|' });
            out.push('(');
            // Children serialized first, then sorted: conjunct /
            // disjunct order drops out.
            let mut parts: Vec<String> = fs
                .iter()
                .map(|g| {
                    let mut s = String::new();
                    ser_formula(g, vn, &mut s);
                    s
                })
                .collect();
            parts.sort();
            for p in &parts {
                out.push_str(p);
                out.push(',');
            }
            out.push(')');
        }
        Formula::Not(g) => {
            out.push_str("!(");
            ser_formula(g, vn, out);
            out.push(')');
        }
    }
}

fn ser_app(app: &PredApp, labels: &[String], vn: &VarNum, out: &mut String) {
    out.push('@');
    out.push_str(&labels[app.pred.0 as usize]);
    out.push('(');
    for arg in &app.args {
        ser_expr(arg, vn, out);
        out.push(';');
    }
    out.push(')');
}

/// Serializes one clause under the given predicate labels and its
/// clause-local variable numbering.
fn ser_clause(clause: &Clause, labels: &[String], vn: &VarNum) -> String {
    let mut out = String::new();
    out.push_str("B[");
    for app in &clause.body_preds {
        ser_app(app, labels, vn, &mut out);
    }
    out.push_str("]C[");
    ser_formula(&clause.constraint, vn, &mut out);
    out.push_str("]H[");
    match &clause.head {
        ClauseHead::Pred(app) => ser_app(app, labels, vn, &mut out),
        ClauseHead::Goal(g) => {
            out.push_str("G:");
            ser_formula(g, vn, &mut out);
        }
    }
    out.push(']');
    out
}

/// Predicates of a clause in canonical traversal order (body, head).
fn clause_preds(clause: &Clause) -> Vec<PredId> {
    let mut ps: Vec<PredId> = clause.body_preds.iter().map(|a| a.pred).collect();
    if let ClauseHead::Pred(app) = &clause.head {
        ps.push(app.pred);
    }
    ps
}

fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET2: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Computes the canonical form of a system. Pure and cheap (no
/// solving): linear in the serialized size times three refinement
/// rounds.
pub fn canonicalize(sys: &ChcSystem) -> Canon {
    let clauses = sys.clauses();
    let npreds = sys.num_preds();
    let varnums: Vec<VarNum> = clauses.iter().map(number_clause_vars).collect();

    // Round zero labels: arity only. Each refinement round serializes
    // under the previous labels, sorts, renumbers by first occurrence.
    let mut labels: Vec<String> =
        sys.preds().iter().map(|p| format!("a{}", p.arity())).collect();
    let mut sorted_idx: Vec<usize> = (0..clauses.len()).collect();
    for _round in 0..3 {
        let strs: Vec<String> = clauses
            .iter()
            .enumerate()
            .map(|(i, c)| ser_clause(c, &labels, &varnums[i]))
            .collect();
        sorted_idx = (0..clauses.len()).collect();
        sorted_idx.sort_by(|&a, &b| strs[a].cmp(&strs[b]).then(a.cmp(&b)));
        let mut num: Vec<Option<usize>> = vec![None; npreds];
        let mut next = 0usize;
        for &i in &sorted_idx {
            for p in clause_preds(&clauses[i]) {
                let slot = &mut num[p.0 as usize];
                if slot.is_none() {
                    *slot = Some(next);
                    next += 1;
                }
            }
        }
        // Predicates mentioned in no clause: numbered after all
        // mentioned ones, in declaration order (they cannot influence
        // any verdict, so this arbitrary-but-deterministic order is
        // harmless).
        for slot in num.iter_mut() {
            if slot.is_none() {
                *slot = Some(next);
                next += 1;
            }
        }
        labels = sys
            .preds()
            .iter()
            .enumerate()
            .map(|(i, p)| format!("q{}_{}", num[i].unwrap(), p.arity()))
            .collect();
    }

    // Final pass: canonical clause order, text, maps.
    let final_strs: Vec<String> = clauses
        .iter()
        .enumerate()
        .map(|(i, c)| ser_clause(c, &labels, &varnums[i]))
        .collect();

    // Recover each predicate's canonical number from its final label
    // ("q<num>_<arity>").
    let canon_of_pred: Vec<usize> = labels
        .iter()
        .map(|l| {
            l[1..l.find('_').unwrap()]
                .parse::<usize>()
                .expect("canonical label")
        })
        .collect();
    let mut pred_of_canon = vec![PredId(0); npreds];
    let mut arities = vec![0usize; npreds];
    for (i, &n) in canon_of_pred.iter().enumerate() {
        pred_of_canon[n] = PredId(i as u32);
        arities[n] = sys.preds()[i].arity();
    }

    let mut text = String::new();
    text.push_str("P[");
    for a in &arities {
        text.push_str(&a.to_string());
        text.push(',');
    }
    text.push(']');
    let mut clause_of_canon = Vec::with_capacity(clauses.len());
    let mut canon_of_clause = vec![0usize; clauses.len()];
    let mut clause_vars = Vec::with_capacity(clauses.len());
    for (ci, &i) in sorted_idx.iter().enumerate() {
        text.push('\n');
        text.push_str(&final_strs[i]);
        clause_of_canon.push(ClauseId(i as u32));
        canon_of_clause[i] = ci;
        clause_vars.push(varnums[i].order.clone());
    }

    let key = format!(
        "{:016x}{:016x}",
        fnv64(FNV_OFFSET, text.as_bytes()),
        fnv64(FNV_OFFSET2, text.as_bytes())
    );

    Canon {
        key,
        text,
        arities,
        pred_of_canon,
        canon_of_pred,
        clause_of_canon,
        canon_of_clause,
        clause_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;

    const FIG1: &str = r#"
        (set-logic HORN)
        (declare-fun inv (Int Int) Bool)
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (inv x y))))
        (assert (forall ((x Int) (y Int))
            (=> (inv x y) (inv (+ x y) (+ y 1)))))
        (assert (forall ((x Int) (y Int))
            (=> (and (inv x y) (< x y)) false)))
        (check-sat)
    "#;

    #[test]
    fn key_is_deterministic_and_name_blind() {
        let a = canonicalize(&parse_chc(FIG1).unwrap());
        let renamed = FIG1.replace("inv", "loop_head").replace('x', "a").replace('y', "b");
        let b = canonicalize(&parse_chc(&renamed).unwrap());
        assert_eq!(a.key, b.key);
        assert!(a.same_form(&b));
    }

    #[test]
    fn constant_change_changes_key() {
        let a = canonicalize(&parse_chc(FIG1).unwrap());
        let tweaked = FIG1.replace("(= x 1)", "(= x 2)");
        let b = canonicalize(&parse_chc(&tweaked).unwrap());
        assert_ne!(a.key, b.key);
        assert!(!a.same_form(&b));
    }

    #[test]
    fn clause_reorder_same_key() {
        let sys = parse_chc(FIG1).unwrap();
        let mut permuted = ChcSystem::new();
        for i in 0..sys.num_vars() {
            permuted.fresh_var(sys.var_name(Var::from_index(i as u32)));
        }
        // parse_chc declares the predicate before any clause vars, so
        // rebuilding needs declare-then-vars ordering; easier: parse a
        // reordered text.
        drop(permuted);
        let reordered = r#"
        (set-logic HORN)
        (declare-fun inv (Int Int) Bool)
        (assert (forall ((x Int) (y Int))
            (=> (and (inv x y) (< x y)) false)))
        (assert (forall ((x Int) (y Int))
            (=> (inv x y) (inv (+ x y) (+ y 1)))))
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (inv x y))))
        (check-sat)
        "#;
        let b = canonicalize(&parse_chc(reordered).unwrap());
        assert_eq!(canonicalize(&sys).key, b.key);
    }
}

//! Verification-condition generation: mini-C → Constrained Horn
//! Clauses.
//!
//! The encoding follows SeaHorn's scheme:
//!
//! * one **summary predicate** `f(args…, ret)` per `int` function,
//!   over-approximating its input/output relation (so recursive
//!   functions become recursive CHCs, possibly non-linear — `fibo`
//!   produces two body occurrences);
//! * one **loop predicate** per `while` head over the variables in
//!   scope (the classic cut-point encoding);
//! * `assert` statements become **query clauses** whose head is the
//!   asserted formula;
//! * `%`/`/` by positive constants are lowered to fresh
//!   quotient/remainder variables with defining constraints;
//! * path-sensitive symbolic execution with **join predicates** when
//!   the number of simultaneous paths exceeds a bound, so large
//!   branchy programs stay polynomial.

use crate::ast::{CmpOp, Cond, Expr, Function, Program, Stmt};
use linarb_arith::BigInt;
use linarb_logic::{Atom, ChcSystem, Formula, LinExpr, PredApp, PredId, Var};
use std::collections::HashMap;
use std::fmt;

/// VC generation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcError {
    msg: String,
}

impl VcError {
    fn new(msg: impl Into<String>) -> VcError {
        VcError { msg: msg.into() }
    }
}

impl fmt::Display for VcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC generation error: {}", self.msg)
    }
}

impl std::error::Error for VcError {}

/// Options for VC generation.
#[derive(Clone, Copy, Debug)]
pub struct VcConfig {
    /// Maximum simultaneous symbolic paths before a join predicate is
    /// introduced.
    pub max_paths: usize,
}

impl Default for VcConfig {
    fn default() -> Self {
        VcConfig { max_paths: 8 }
    }
}

/// Generates the CHC system of a program with default options.
///
/// # Errors
///
/// Returns [`VcError`] for non-linear arithmetic, calls to undefined
/// or `void` functions in expression position, use of undeclared
/// variables, and `int` functions that can fall off the end without
/// returning.
pub fn generate_chc(prog: &Program) -> Result<ChcSystem, VcError> {
    generate_chc_with(prog, VcConfig::default())
}

/// Generates the CHC system of a program.
///
/// # Errors
///
/// See [`generate_chc`].
pub fn generate_chc_with(prog: &Program, config: VcConfig) -> Result<ChcSystem, VcError> {
    let mut g = VcGen {
        prog,
        sys: ChcSystem::new(),
        summaries: HashMap::new(),
        config,
        counter: 0,
    };
    // Declare summaries first so mutual recursion works.
    for f in &prog.functions {
        if f.returns_value {
            let pred = g.sys.declare_pred(&f.name, f.params.len() + 1);
            g.summaries.insert(f.name.clone(), pred);
        }
    }
    for f in &prog.functions {
        g.emit_function(f)?;
    }
    Ok(g.sys)
}

#[derive(Clone)]
struct Flow {
    env: HashMap<String, LinExpr>,
    scope: Vec<String>,
    preds: Vec<PredApp>,
    constraints: Vec<Formula>,
}

impl Flow {
    fn constraint(&self) -> Formula {
        Formula::and(self.constraints.clone())
    }

    fn scope_values(&self) -> Vec<LinExpr> {
        self.scope
            .iter()
            .map(|v| self.env[v].clone())
            .collect()
    }
}

struct VcGen<'a> {
    prog: &'a Program,
    sys: ChcSystem,
    summaries: HashMap<String, PredId>,
    config: VcConfig,
    counter: usize,
}

type Returns = Vec<(Flow, Option<LinExpr>)>;

impl VcGen<'_> {
    fn fresh(&mut self, hint: &str) -> Var {
        self.counter += 1;
        let name = format!("{hint}!{}", self.counter);
        self.sys.fresh_var(&name)
    }

    fn emit_function(&mut self, f: &Function) -> Result<(), VcError> {
        let mut env = HashMap::new();
        let mut scope = Vec::new();
        let mut entry_args = Vec::new();
        for p in &f.params {
            let v = self.fresh(&format!("{}::{}", f.name, p));
            env.insert(p.clone(), LinExpr::var(v));
            scope.push(p.clone());
            entry_args.push(LinExpr::var(v));
        }
        let flow = Flow { env, scope, preds: Vec::new(), constraints: Vec::new() };
        let (fallthrough, returns) = self.exec_block(f, &f.body, vec![flow])?;
        if f.returns_value {
            if !fallthrough.is_empty() {
                return Err(VcError::new(format!(
                    "function `{}` may fall through without returning",
                    f.name
                )));
            }
            let pred = self.summaries[&f.name];
            for (flow, val) in returns {
                let val = val.ok_or_else(|| {
                    VcError::new(format!("bare `return;` in int function `{}`", f.name))
                })?;
                let mut args = entry_args.clone();
                args.push(val);
                self.sys.rule(flow.preds.clone(), flow.constraint(), pred, args);
            }
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        f: &Function,
        stmts: &[Stmt],
        mut flows: Vec<Flow>,
    ) -> Result<(Vec<Flow>, Returns), VcError> {
        let scope_depth: Vec<usize> = flows.iter().map(|fl| fl.scope.len()).collect();
        let mut returns = Returns::new();
        for s in stmts {
            let mut next = Vec::new();
            for flow in flows {
                let (fs, mut rs) = self.exec_stmt(f, s, flow)?;
                next.extend(fs);
                returns.append(&mut rs);
            }
            flows = next;
            if flows.len() > self.config.max_paths {
                flows = vec![self.join(f, flows)?];
            }
            if flows.is_empty() {
                break;
            }
        }
        // restore block scoping
        let depth = scope_depth.first().copied().unwrap_or(0);
        for fl in &mut flows {
            fl.scope.truncate(depth);
        }
        Ok((flows, returns))
    }

    /// Merges several paths through a fresh join predicate.
    fn join(&mut self, f: &Function, flows: Vec<Flow>) -> Result<Flow, VcError> {
        let scope = flows[0].scope.clone();
        for fl in &flows {
            debug_assert_eq!(fl.scope, scope, "paths must agree on scope at join");
        }
        self.counter += 1;
        let pred = self
            .sys
            .declare_pred(&format!("{}!join{}", f.name, self.counter), scope.len());
        for fl in flows {
            let vals = fl.scope_values();
            self.sys.rule(fl.preds.clone(), fl.constraint(), pred, vals);
        }
        let mut env = HashMap::new();
        let mut args = Vec::new();
        for name in &scope {
            let v = self.fresh(&format!("{}::{name}", f.name));
            env.insert(name.clone(), LinExpr::var(v));
            args.push(LinExpr::var(v));
        }
        Ok(Flow {
            env,
            scope,
            preds: vec![PredApp::new(pred, args)],
            constraints: Vec::new(),
        })
    }

    fn exec_stmt(
        &mut self,
        f: &Function,
        s: &Stmt,
        mut flow: Flow,
    ) -> Result<(Vec<Flow>, Returns), VcError> {
        match s {
            Stmt::Decl(x, init) => {
                let val = match init {
                    Some(e) => self.eval(f, e, &mut flow)?,
                    None => LinExpr::var(self.fresh(&format!("{}::{x}", f.name))),
                };
                if !flow.scope.contains(x) {
                    flow.scope.push(x.clone());
                }
                flow.env.insert(x.clone(), val);
                Ok((vec![flow], Vec::new()))
            }
            Stmt::Assign(x, e) => {
                if !flow.env.contains_key(x) {
                    return Err(VcError::new(format!("assignment to undeclared `{x}`")));
                }
                let val = self.eval(f, e, &mut flow)?;
                flow.env.insert(x.clone(), val);
                Ok((vec![flow], Vec::new()))
            }
            Stmt::Expr(e) => {
                // Void calls are no-ops for the caller; other
                // expressions are evaluated for their side conditions.
                match e {
                    Expr::Call(name, args) if !self.summaries.contains_key(name) => {
                        if self.prog.function(name).is_none() {
                            return Err(VcError::new(format!("call to undefined `{name}`")));
                        }
                        for a in args {
                            self.eval(f, a, &mut flow)?;
                        }
                    }
                    _ => {
                        self.eval(f, e, &mut flow)?;
                    }
                }
                Ok((vec![flow], Vec::new()))
            }
            Stmt::Assume(c) => {
                let cf = self.cond(f, c, &mut flow)?;
                flow.constraints.push(cf);
                Ok((vec![flow], Vec::new()))
            }
            Stmt::Assert(c) => {
                let cf = self.cond(f, c, &mut flow)?;
                self.sys
                    .query(flow.preds.clone(), flow.constraint(), cf.clone());
                flow.constraints.push(cf);
                Ok((vec![flow], Vec::new()))
            }
            Stmt::Return(e) => {
                let val = match e {
                    Some(e) => Some(self.eval(f, e, &mut flow)?),
                    None => None,
                };
                Ok((Vec::new(), vec![(flow, val)]))
            }
            Stmt::If(c, then_b, else_b) => {
                let cf = self.cond(f, c, &mut flow)?;
                let mut then_flow = flow.clone();
                then_flow.constraints.push(cf.clone());
                let mut else_flow = flow;
                else_flow.constraints.push(Formula::not(cf));
                let (mut flows, mut returns) = self.exec_block(f, then_b, vec![then_flow])?;
                let (efs, mut ers) = self.exec_block(f, else_b, vec![else_flow])?;
                flows.extend(efs);
                returns.append(&mut ers);
                Ok((flows, returns))
            }
            Stmt::While(c, body) => {
                self.counter += 1;
                let scope = flow.scope.clone();
                let pred = self
                    .sys
                    .declare_pred(&format!("{}!loop{}", f.name, self.counter), scope.len());
                // entry: current state establishes the loop invariant
                let vals = flow.scope_values();
                self.sys
                    .rule(flow.preds.clone(), flow.constraint(), pred, vals);
                // body: havoc scope, assume invariant + condition
                let mut body_flow = self.havoc(f, &scope, pred);
                let cf = self.cond(f, c, &mut body_flow)?;
                body_flow.constraints.push(cf);
                let (body_ends, returns) = self.exec_block(f, body, vec![body_flow])?;
                for end in body_ends {
                    let vals = end.scope_values();
                    self.sys.rule(end.preds.clone(), end.constraint(), pred, vals);
                }
                // exit: havoc again, assume invariant + negated condition
                let mut exit_flow = self.havoc(f, &scope, pred);
                let cf = self.cond(f, c, &mut exit_flow)?;
                exit_flow.constraints.push(Formula::not(cf));
                Ok((vec![exit_flow], returns))
            }
        }
    }

    fn havoc(&mut self, f: &Function, scope: &[String], pred: PredId) -> Flow {
        let mut env = HashMap::new();
        let mut args = Vec::new();
        for name in scope {
            let v = self.fresh(&format!("{}::{name}", f.name));
            env.insert(name.clone(), LinExpr::var(v));
            args.push(LinExpr::var(v));
        }
        Flow {
            env,
            scope: scope.to_vec(),
            preds: vec![PredApp::new(pred, args)],
            constraints: Vec::new(),
        }
    }

    fn cond(&mut self, f: &Function, c: &Cond, flow: &mut Flow) -> Result<Formula, VcError> {
        match c {
            Cond::Const(b) => Ok(if *b { Formula::True } else { Formula::False }),
            Cond::Nondet => {
                // Fresh unconstrained boolean: `b >= 1` with b free, so
                // both the condition and its negation are satisfiable.
                let b = self.fresh("nd");
                Ok(Formula::from(Atom::ge(
                    LinExpr::var(b),
                    LinExpr::constant(BigInt::one()),
                )))
            }
            Cond::Not(c) => Ok(Formula::not(self.cond(f, c, flow)?)),
            Cond::And(a, b) => {
                let fa = self.cond(f, a, flow)?;
                let fb = self.cond(f, b, flow)?;
                Ok(Formula::and(vec![fa, fb]))
            }
            Cond::Or(a, b) => {
                let fa = self.cond(f, a, flow)?;
                let fb = self.cond(f, b, flow)?;
                Ok(Formula::or(vec![fa, fb]))
            }
            Cond::Cmp(op, l, r) => {
                let le = self.eval(f, l, flow)?;
                let re = self.eval(f, r, flow)?;
                Ok(match op {
                    CmpOp::Eq => Atom::eq_expr(le, re),
                    CmpOp::Ne => Formula::or(vec![
                        Formula::from(Atom::lt(le.clone(), re.clone())),
                        Formula::from(Atom::gt(le, re)),
                    ]),
                    CmpOp::Lt => Formula::from(Atom::lt(le, re)),
                    CmpOp::Le => Formula::from(Atom::le(le, re)),
                    CmpOp::Gt => Formula::from(Atom::gt(le, re)),
                    CmpOp::Ge => Formula::from(Atom::ge(le, re)),
                })
            }
        }
    }

    fn eval(&mut self, f: &Function, e: &Expr, flow: &mut Flow) -> Result<LinExpr, VcError> {
        match e {
            Expr::Lit(n) => Ok(LinExpr::constant(BigInt::from(*n))),
            Expr::Var(x) => flow
                .env
                .get(x)
                .cloned()
                .ok_or_else(|| VcError::new(format!("use of undeclared variable `{x}`"))),
            Expr::Nondet => Ok(LinExpr::var(self.fresh("nd"))),
            Expr::Add(a, b) => Ok(&self.eval(f, a, flow)? + &self.eval(f, b, flow)?),
            Expr::Sub(a, b) => Ok(&self.eval(f, a, flow)? - &self.eval(f, b, flow)?),
            Expr::Neg(a) => Ok(-&self.eval(f, a, flow)?),
            Expr::Mul(a, b) => {
                let ea = self.eval(f, a, flow)?;
                let eb = self.eval(f, b, flow)?;
                if ea.is_constant() {
                    Ok(eb.scale(ea.constant_term()))
                } else if eb.is_constant() {
                    Ok(ea.scale(eb.constant_term()))
                } else {
                    Err(VcError::new("non-linear multiplication is not supported"))
                }
            }
            Expr::Div(a, b) | Expr::Mod(a, b) => {
                let ea = self.eval(f, a, flow)?;
                let eb = self.eval(f, b, flow)?;
                if !eb.is_constant() || !eb.constant_term().is_positive() {
                    return Err(VcError::new(
                        "division/modulus requires a positive constant divisor",
                    ));
                }
                let k = eb.constant_term().clone();
                let q = LinExpr::var(self.fresh("div"));
                let r = LinExpr::var(self.fresh("mod"));
                flow.constraints
                    .push(Atom::eq_expr(ea, &q.scale(&k) + &r));
                flow.constraints
                    .push(Formula::from(Atom::ge(r.clone(), LinExpr::zero())));
                flow.constraints
                    .push(Formula::from(Atom::lt(r.clone(), LinExpr::constant(k))));
                Ok(if matches!(e, Expr::Div(_, _)) { q } else { r })
            }
            Expr::Call(name, args) => {
                let pred = *self.summaries.get(name).ok_or_else(|| {
                    VcError::new(format!(
                        "call to undefined or void function `{name}` in expression"
                    ))
                })?;
                let arity = self.sys.pred(pred).arity();
                if args.len() + 1 != arity {
                    return Err(VcError::new(format!(
                        "`{name}` expects {} arguments, got {}",
                        arity - 1,
                        args.len()
                    )));
                }
                let mut call_args = Vec::new();
                for a in args {
                    call_args.push(self.eval(f, a, flow)?);
                }
                let ret = LinExpr::var(self.fresh(&format!("{name}!ret")));
                call_args.push(ret.clone());
                flow.preds.push(PredApp::new(pred, call_args));
                Ok(ret)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn chc(src: &str) -> ChcSystem {
        generate_chc(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn fig1_clause_shape() {
        let sys = chc(r#"
            void main() {
                int x = 1; int y = 0;
                while (*) { x = x + y; y = y + 1; }
                assert(x >= y);
            }
        "#);
        // one loop predicate; entry rule, body rule, one query
        assert_eq!(sys.num_preds(), 1);
        assert!(sys.is_recursive());
        let queries = sys.clauses().iter().filter(|c| c.is_query()).count();
        assert_eq!(queries, 1);
        let facts = sys.clauses().iter().filter(|c| c.is_fact()).count();
        assert_eq!(facts, 1);
    }

    #[test]
    fn fibo_produces_nonlinear_clause() {
        let sys = chc(r#"
            int fibo(int x) {
                if (x < 1) { return 0; }
                else { if (x == 1) { return 1; }
                       else { return fibo(x - 1) + fibo(x - 2); } }
            }
            void main() {
                int n = nondet();
                assert(fibo(n) >= n - 1);
            }
        "#);
        assert!(sys.is_recursive());
        // the recursive summary clause has two body occurrences
        let max_body = sys
            .clauses()
            .iter()
            .map(|c| c.body_preds.len())
            .max()
            .unwrap();
        assert_eq!(max_body, 2);
    }

    #[test]
    fn mod_lowering() {
        let sys = chc(r#"
            void main() {
                int i = nondet();
                assume(i % 2 == 0);
                assert(i % 2 != 1);
            }
        "#);
        assert_eq!(sys.num_preds(), 0);
        assert_eq!(sys.clauses().len(), 1);
    }

    #[test]
    fn join_predicate_on_branchy_code() {
        // 12 sequential ifs would be 2^12 paths; joins must keep the
        // clause count small.
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("if (*) {{ x = x + {i}; }} else {{ x = x - {i}; }}\n"));
        }
        let src = format!(
            "void main() {{ int x = 0; {body} assert(x <= 100 || x > -100); }}"
        );
        let sys = chc(&src);
        assert!(
            sys.num_clauses() < 100,
            "joins must bound clause growth, got {}",
            sys.num_clauses()
        );
        assert!(sys.preds().iter().any(|p| p.name.contains("join")));
    }

    #[test]
    fn nested_loops() {
        let sys = chc(r#"
            void main() {
                int i = 0; int s = 0; int n = *;
                while (i < n) {
                    int j = 0;
                    while (j < i) { s = s + 1; j = j + 1; }
                    i = i + 1;
                }
                assert(s >= 0 || n < 0);
            }
        "#);
        let loops = sys.preds().iter().filter(|p| p.name.contains("loop")).count();
        assert_eq!(loops, 2);
    }

    #[test]
    fn errors() {
        let p = parse_program("void main() { x = 1; }").unwrap();
        assert!(generate_chc(&p).is_err());
        let p = parse_program("void main() { int x = *; int y = x * x; }").unwrap();
        assert!(generate_chc(&p).is_err());
        let p = parse_program("int f(int x) { if (x > 0) { return 1; } }").unwrap();
        assert!(generate_chc(&p).is_err(), "fallthrough in int function");
        let p = parse_program("void main() { int x = g(3); }").unwrap();
        assert!(generate_chc(&p).is_err());
    }

    #[test]
    fn returns_propagate_through_loops() {
        let sys = chc(r#"
            int find(int n) {
                int i = 0;
                while (i < n) {
                    if (i * 2 == n) { return i; }
                    i = i + 1;
                }
                return 0 - 1;
            }
            void main() {
                int r = find(10);
                assert(r <= 10);
            }
        "#);
        // summary must have rules from both the in-loop return and the
        // final return
        let find = sys.pred_by_name("find").unwrap();
        let rules_for_find = sys
            .clauses()
            .iter()
            .filter(|c| matches!(&c.head, linarb_logic::ClauseHead::Pred(a) if a.pred == find.id))
            .count();
        assert!(rules_for_find >= 2);
    }
}

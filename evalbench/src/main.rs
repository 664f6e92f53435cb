//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! evalbench --workload <paper_eval|scaling|serve_resubmit> --seed <n>
//!           --seconds <s> --trace <0|1> --linarb <path> --work-dir <dir>
//! evalbench --self-test
//! ```
//!
//! `evalbench/run.py` builds the solver and this program and passes
//! `--linarb` and `--work-dir`; see `evalbench/README.md` for the
//! workloads and metrics. The last line of standard output is the
//! result as one JSON object. The exit code is 0 only when every
//! verdict, certificate and cross-check was correct.

mod check;
mod cli;
mod report;
mod serve;
mod solve;
mod spans;
mod stats;
mod suites;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Per-instance (and per-job) wall-clock budget: `paper_eval`'s 2 s.
pub const BUDGET: Duration = Duration::from_secs(2);

/// Instances solved at once in the solver workloads (one thread each).
pub const WORKERS: usize = 2;

/// Settings of one run.
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time; whole passes are run until it is used up.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// The built `linarb` binary.
    pub linarb: PathBuf,
    /// Directory for the daemon socket, guard inputs and span files.
    pub work_dir: PathBuf,
    /// Flip one verdict before the correctness gate (self-test).
    pub inject_fault: bool,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut o = Options {
        workload: String::new(),
        seed: suites::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        linarb: PathBuf::new(),
        work_dir: PathBuf::new(),
        inject_fault: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--self-test" => return Ok(None),
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => o.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => o.trace = value()? == "1",
            "--linarb" => o.linarb = PathBuf::from(value()?),
            "--work-dir" => o.work_dir = PathBuf::from(value()?),
            "--inject-fault" => o.inject_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !o.linarb.is_file() {
        return Err(format!("--linarb {} is not a file", o.linarb.display()));
    }
    if o.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".to_string());
    }
    std::fs::create_dir_all(&o.work_dir).map_err(|e| format!("{}: {e}", o.work_dir.display()))?;
    Ok(Some(o))
}

/// The checker must accept true verdicts, and catch a verdict that
/// contradicts the ground truth (the known answer flipped, so only the
/// comparison with it can fail) and a corrupted certificate of either
/// polarity.
fn self_test() -> bool {
    use check::{certificate_holds, consistent, corrupt, flipped, split};
    use linarb_smt::Budget;
    use linarb_solver::{CegarSolver, SolverConfig};
    let mut ok = true;
    let mut say = |pass: bool, what: String| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    let diff = suites::check_default_sets();
    let detail = diff.as_deref().map_or(String::new(), |d| format!(": {d}"));
    say(
        diff.is_none(),
        format!("default seed rebuilds paper_eval's sets{detail}"),
    );
    for b in [linarb_suite::fig1(), linarb_suite::fibo_unsafe()] {
        let sys = &b.system;
        let result =
            CegarSolver::new(sys, SolverConfig::default()).solve(&Budget::timeout(BUDGET * 5));
        let (verdict, cert) = split(result);
        let Some(cert) = cert else {
            say(false, format!("{}: no verdict", b.name));
            continue;
        };
        say(
            consistent(b.expected, verdict, Some(&cert)) && certificate_holds(sys, &cert),
            format!("{}: true verdict {verdict:?} passes", b.name),
        );
        say(
            check::matches(flipped(b.expected), verdict) == Some(false)
                && !consistent(flipped(b.expected), verdict, Some(&cert)),
            format!(
                "{}: verdict {verdict:?} against flipped answer {:?} is caught",
                b.name,
                flipped(b.expected)
            ),
        );
        say(
            !certificate_holds(sys, &corrupt(sys, &cert)),
            format!("{}: corrupted certificate is caught", b.name),
        );
    }
    ok
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            return if self_test() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("evalbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match opts.workload.as_str() {
        "paper_eval" => solve::run(&suites::paper_eval(opts.seed), &opts),
        "scaling" => solve::run(&suites::scaling(opts.seed), &opts),
        "serve_resubmit" => match serve::run(&opts) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("evalbench: serve_resubmit: {msg}");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("evalbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.print(opts.trace);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The `serve_resubmit` workload: a `linarb serve` daemon with two
//! workers on a Unix socket, fed by one client connection in a closed
//! loop (the next batch goes out only after the previous reply).
//!
//! The new problems of a pass are a fixed pool from the cheap
//! generator families, all with known answers (counter, invgen,
//! recursive, phase). The order they arrive in is drawn from the seed
//! and the pass number. As in `linarb_serve::replay::run_replay`, each
//! new problem is followed directly by its variants, here the seven
//! rename/reorder/scale classes of `linarb_serve::replay::variant`
//! once each (1 + 7 jobs per problem). Constant perturbations, the
//! replay mix's eighth class, are left out because their answer is
//! unknown. A pass replays its traffic against a fresh daemon. The
//! arrival order decides which cached neighbour warm-starts each
//! near-tier solve, and with it the cost of later hits, so every pass
//! draws a new order and a run pools its passes; the fixed pool keeps
//! the solving work the same across seeds.

use crate::check::Verdict;
use crate::report::{median_over, peak_rss_mb, Report, Values};
use crate::spans::{self, timed, Tracer};
use crate::stats;
use crate::suites::mix;
use crate::{Options, BUDGET};
use linarb_serve::client::Client;
use linarb_serve::proto::{render_batch, JobSpec};
use linarb_serve::BindAddr;
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolverConfig};
use linarb_suite::{Benchmark, Category, Expected};
use linarb_trace::json::{self, Json};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Jobs per batch.
const BATCH: usize = 32;
/// Lower bound applied to each batch's round trip in
/// `verdict_geomean_ms`.
const GEOMEAN_FLOOR_MS: f64 = 1.0;
/// Daemon worker threads.
const DAEMON_THREADS: usize = 2;
/// Minimum daemon start-ups per run behind `setup_s`.
const MIN_SETUPS: usize = 11;
/// Longest the daemon may take to print `ready` or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(60);

/// Pseudo-random stream for the traffic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One submitted job.
pub struct Job {
    /// SMT-LIB text as sent.
    pub text: String,
    /// The known answer of the problem it came from.
    pub expected: Expected,
    /// Whether this is the problem's first submission.
    pub new: bool,
}

/// The new problems of every pass.
fn pool() -> Vec<Benchmark> {
    use linarb_suite::{counter_family, invgen_family, phase_family, recursive_family};
    let mut out = counter_family(32, 0x5e_c1, Category::LoopLit);
    out.extend(invgen_family(8, 0x5e_c2, Category::LoopInvgen));
    out.extend(recursive_family(4, 0x5e_c3, Category::Recursive));
    out.extend(phase_family(4, 0x5e_c4, Category::LoopInvgen));
    out
}

/// The job stream of pass `pass`: the pool in a drawn order, each
/// problem followed by its seven syntactic variants.
pub fn traffic(pool: &[Benchmark], seed: u64, pass: usize) -> Vec<Job> {
    let mut rng = Rng(mix(seed ^ 0x5e7e_5e7e) ^ mix(pass as u64));
    let mut order: Vec<&Benchmark> = pool.iter().collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.below(k + 1));
    }
    let mut jobs = Vec::with_capacity(8 * order.len());
    for base in order {
        jobs.push(Job {
            text: base.system.to_smtlib(),
            expected: base.expected,
            new: true,
        });
        let vseed = rng.next();
        // Classes 1..=7 of `variant`: every non-empty rename/reorder/scale mask.
        for class in 1..=7 {
            let v = linarb_serve::replay::variant(&base.system, vseed, class);
            jobs.push(Job {
                text: v.to_smtlib(),
                expected: base.expected,
                new: false,
            });
        }
    }
    jobs
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    ready_s: f64,
}

impl Daemon {
    fn spawn(opts: &Options, sock: &str) -> Result<Daemon, String> {
        let mut cmd = Command::new(&opts.linarb);
        cmd.args(["serve", "--addr", &format!("unix:{sock}")])
            .args(["--threads", &DAEMON_THREADS.to_string()])
            .args(["--timeout-ms", &BUDGET.as_millis().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            reader: Some(reader),
            ready_s: 0.0,
        };
        loop {
            let left = DAEMON_DEADLINE.saturating_sub(start.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) if line.contains("ready") => break,
                Ok(_) => {}
                Err(_) => return Err("the daemon never printed `ready`".to_string()),
            }
        }
        daemon.ready_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(mut self, addr: &BindAddr) -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        client
            .call("{\"op\":\"shutdown\"}")
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("the daemon exited with {status}")),
                None if start.elapsed() > DAEMON_DEADLINE => {
                    return Err("the daemon ignored shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// One reply entry.
struct Reply {
    verdict: String,
    wall_us: f64,
}

fn parse_replies(text: &str) -> Vec<Reply> {
    let Ok(v) = json::parse(text) else {
        return Vec::new();
    };
    let Some(Json::Arr(items)) = v.get("results") else {
        return Vec::new();
    };
    items
        .iter()
        .map(|r| Reply {
            verdict: r
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap_or("error")
                .to_string(),
            wall_us: r.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// Raw measurements of one pass.
struct Pass {
    /// Batch round trips as the client saw them.
    rtt_s: Vec<f64>,
    /// Largest reply `wall_us` in each batch, in seconds.
    daemon_s: Vec<f64>,
    solved: u64,
    wrong: u64,
    errors: u64,
    unknown: u64,
    /// The daemon's `stats` counters after the pass.
    stats: Values,
    rss_mb: f64,
    ready_s: f64,
}

fn run_pass(
    opts: &Options,
    addr: &BindAddr,
    sock: &str,
    jobs: &[Job],
    requests: &[String],
    tracer: Option<&Tracer>,
    notes: &mut Vec<String>,
) -> Result<Pass, String> {
    let daemon = Daemon::spawn(opts, sock)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::with_capacity(requests.len());
    let mut rtt_s = Vec::with_capacity(requests.len());
    for (b, req) in requests.iter().enumerate() {
        let (resp, secs) = timed(tracer, "serve.batch", b as u64, || client.call(req));
        replies.push(resp.map_err(|e| format!("batch {b}: {e}"))?);
        rtt_s.push(secs);
    }
    let stats_text = client
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let rss_mb = peak_rss_mb(&daemon.pid());
    drop(client);
    let ready_s = daemon.ready_s;
    daemon.shutdown(addr)?;

    let mut pass = Pass {
        rtt_s,
        daemon_s: Vec::with_capacity(replies.len()),
        solved: 0,
        wrong: 0,
        errors: 0,
        unknown: 0,
        stats: Values::new(),
        rss_mb,
        ready_s,
    };
    for (b, (batch, text)) in jobs.chunks(BATCH).zip(&replies).enumerate() {
        let got = parse_replies(text);
        pass.daemon_s
            .push(got.iter().map(|r| r.wall_us).fold(0.0, f64::max) * 1e-6);
        for (k, job) in batch.iter().enumerate() {
            let verdict = got.get(k).map_or("error", |r| r.verdict.as_str());
            let expected = if opts.inject_fault && b == 0 && k == 0 {
                crate::check::flipped(job.expected)
            } else {
                job.expected
            };
            match crate::check::matches(expected, Verdict::from_wire(verdict)) {
                Some(true) => pass.solved += 1,
                Some(false) => {
                    pass.wrong += 1;
                    notes.push(format!(
                        "WRONG: job {} answered {verdict}, expected {expected:?}",
                        b * BATCH + k
                    ));
                }
                None if verdict == "unknown" => pass.unknown += 1,
                None => {
                    pass.errors += 1;
                    notes.push(format!("ERROR: job {} answered {verdict}", b * BATCH + k));
                }
            }
        }
    }
    let stats = json::parse(&stats_text).ok();
    for name in [
        "exact_hits",
        "near_hits",
        "misses",
        "verify_failures",
        "errors",
    ] {
        let v = stats
            .as_ref()
            .and_then(|v| v.get("stats")?.get(name)?.as_f64())
            .unwrap_or(0.0);
        pass.stats.insert(name, v);
    }
    Ok(pass)
}

/// End-to-end and per-layer values of one pass.
fn pass_values(p: &Pass, jobs: usize, budget_s: f64) -> (Values, Values) {
    let wall_s: f64 = p.rtt_s.iter().sum();
    let daemon_s: f64 = p.daemon_s.iter().sum();
    let e2e = Values::from([
        ("solved", p.solved as f64),
        (
            "par2_s",
            wall_s + 2.0 * budget_s * (jobs as u64 - p.solved) as f64,
        ),
        ("jobs_per_s", jobs as f64 / wall_s),
    ]);
    let layers = Values::from([
        ("serve.exact_hits", p.stats["exact_hits"]),
        ("serve.near_hits", p.stats["near_hits"]),
        ("serve.misses", p.stats["misses"]),
        ("serve.verify_failures", p.stats["verify_failures"]),
        ("serve.errors", p.stats["errors"]),
        ("serve.exact_hit_ratio", p.stats["exact_hits"] / jobs as f64),
        ("serve.daemon_s", daemon_s),
        ("serve.wire_s", wall_s - daemon_s),
    ]);
    (e2e, layers)
}

/// The daemon's parse and canonicalize steps, replayed here on each
/// request's text outside the measured loop.
fn replay_front_end(jobs: &[Job], t: &Tracer, layers: &mut Values) -> Vec<spans::Span> {
    for (id, job) in jobs.iter().enumerate() {
        let (sys, _) = timed(Some(t), "logic.parse", id as u64, || {
            linarb_logic::parse_chc(&job.text)
        });
        if let Ok(sys) = sys {
            timed(Some(t), "frontend.canon", id as u64, || {
                linarb_frontend::canon::canonicalize(&sys)
            });
        }
    }
    let spans = t.take();
    layers.insert("logic.parse_s", spans::total_secs(&spans, "logic.parse"));
    layers.insert(
        "frontend.canon_s",
        spans::total_secs(&spans, "frontend.canon"),
    );
    spans
}

/// One rendered batch request per [`BATCH`] jobs.
fn render_requests(jobs: &[Job]) -> Vec<String> {
    jobs.chunks(BATCH)
        .enumerate()
        .map(|(b, batch)| {
            let specs: Vec<JobSpec> = batch
                .iter()
                .enumerate()
                .map(|(k, j)| JobSpec {
                    id: (b * BATCH + k) as u64,
                    name: format!("job{}", b * BATCH + k),
                    format: "smt2".to_string(),
                    program: j.text.clone(),
                })
                .collect();
            render_batch(&specs)
        })
        .collect()
}

/// Runs the serve workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let pool = pool();
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string())?;
    let sock = socket_path(&opts.work_dir);
    let addr = BindAddr::Unix(PathBuf::from(&sock));
    let budget_s = BUDGET.as_secs_f64();
    let first_jobs = traffic(&pool, opts.seed, 0);
    let new = first_jobs.iter().filter(|j| j.new).count();
    let per_pass = first_jobs.len();
    let mut notes = vec![format!(
        "serve_resubmit: seed {}, {per_pass} jobs per pass ({new} new problems, {} resubmissions = {:.1}%), \
         batches of {BATCH}, closed loop, 1 client, daemon with {DAEMON_THREADS} workers, budget {budget_s:.1} s, \
         trace {}",
        opts.seed,
        per_pass - new,
        100.0 * (per_pass - new) as f64 / per_pass as f64,
        u8::from(opts.trace)
    )];
    let tracer = opts.trace.then(Tracer::new);
    let (mut e2e_passes, mut layer_passes, mut all_spans, mut rtt_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let (mut attempted, mut wrong, mut errors, mut unknown) = (0u64, 0u64, 0u64, 0u64);
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let jobs = traffic(&pool, opts.seed, e2e_passes.len());
        let requests = render_requests(&jobs);
        let p = run_pass(
            opts,
            &addr,
            &sock,
            &jobs,
            &requests,
            tracer.as_ref(),
            &mut notes,
        )?;
        setups.push(p.ready_s);
        rss.push(p.rss_mb);
        attempted += jobs.len() as u64;
        (wrong, errors, unknown) = (wrong + p.wrong, errors + p.errors, unknown + p.unknown);
        rtt_ms.extend(p.rtt_s.iter().map(|s| s * 1e3));
        let (e2e, mut layers) = pass_values(&p, jobs.len(), budget_s);
        if let Some(t) = &tracer {
            all_spans.extend(replay_front_end(&jobs, t, &mut layers));
        }
        e2e_passes.push(e2e);
        layer_passes.push(layers);
        if started.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > opts.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let d = Daemon::spawn(opts, &sock)?;
        setups.push(d.ready_s);
        d.shutdown(&addr)?;
    }
    let _ = std::fs::remove_file(&sock);

    let mut correct = wrong == 0 && errors == 0;
    let first = &layer_passes[0];
    notes.push(format!(
        "passes: {}; wrong {wrong}, errors {errors}, unknown {unknown}; first pass: \
         exact {} near {} miss {} ({:.1}% / {:.1}% / {:.1}% of jobs); batch rtt p50 {:.3} ms, \
         p90 {:.3} ms over {} batches",
        e2e_passes.len(),
        first["serve.exact_hits"],
        first["serve.near_hits"],
        first["serve.misses"],
        100.0 * first["serve.exact_hits"] / per_pass as f64,
        100.0 * first["serve.near_hits"] / per_pass as f64,
        100.0 * first["serve.misses"] / per_pass as f64,
        stats::median(&rtt_ms),
        stats::quantile(&rtt_ms, 0.9),
        rtt_ms.len()
    ));
    correct &= drift_guard(opts, &first_jobs, &mut notes);
    if opts.trace {
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

    // Round trips pool over all passes (each pass has its own arrival
    // order); totals are per pass, then the median over passes.
    let mut end_to_end = median_over(&e2e_passes);
    end_to_end.insert(
        "verdict_geomean_ms",
        stats::geomean(&rtt_ms, GEOMEAN_FLOOR_MS),
    );
    end_to_end.insert("setup_s", stats::median(&setups));
    end_to_end.insert("peak_rss_mb", stats::median(&rss));
    Ok(Report {
        correct,
        attempted,
        failed: wrong + errors,
        end_to_end,
        per_layer: if opts.trace {
            median_over(&layer_passes)
        } else {
            Values::new()
        },
        notes,
    })
}

/// The socket lives in the work directory, named relative to the
/// current directory when possible (Unix socket paths are short).
fn socket_path(work_dir: &std::path::Path) -> String {
    let sock = work_dir.join(format!("serve-{}.sock", std::process::id()));
    let rel = std::env::current_dir().ok().and_then(|cwd| {
        sock.strip_prefix(cwd)
            .ok()
            .map(std::path::Path::to_path_buf)
    });
    rel.unwrap_or(sock).to_string_lossy().into_owned()
}

/// The CLI must agree with an in-process default solve on the first
/// new problems, written out as the SMT-LIB text the daemon received.
fn drift_guard(opts: &Options, jobs: &[Job], notes: &mut Vec<String>) -> bool {
    let mut ok = true;
    let dir = opts.work_dir.join("guard");
    for (k, job) in jobs.iter().filter(|j| j.new).take(2).enumerate() {
        let Ok(sys) = linarb_logic::parse_chc(&job.text) else {
            notes.push(format!("DRIFT: new problem {k} does not parse"));
            return false;
        };
        let mut solver = CegarSolver::new(&sys, SolverConfig::default());
        let start = Instant::now();
        let (verdict, _) = crate::check::split(solver.solve(&Budget::timeout(BUDGET)));
        if verdict == Verdict::Unknown || start.elapsed() > Duration::from_millis(250) {
            continue;
        }
        let expected = (verdict, solver.stats().iterations as u64);
        match crate::cli::guard(
            &opts.linarb,
            &dir,
            &format!("serve_{k}.smt2"),
            &job.text,
            expected,
            BUDGET,
        ) {
            Ok(line) => notes.push(line),
            Err(line) => {
                ok = false;
                notes.push(format!("DRIFT: {line}"));
            }
        }
    }
    ok
}

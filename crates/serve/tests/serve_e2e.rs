//! End-to-end tests for the serve subsystem: cache tiers, verdict
//! stability, the socket daemon, and the replay driver.

use std::sync::Arc;
use std::time::Duration;

use linarb_serve::engine::{JobInput, ServeConfig, ServeCore, Source, Tier};
use linarb_serve::client::Client;
use linarb_serve::replay::{run_replay, variant, ReplayConfig};
use linarb_serve::server::{serve, BindAddr};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
use linarb_suite::{even_odd, fibo_unsafe, fig1, invgen_sum, Benchmark};

fn test_config() -> ServeConfig {
    ServeConfig { threads: 2, timeout: Duration::from_secs(60), ..ServeConfig::default() }
}

fn job(id: u64, b: &Benchmark) -> JobInput {
    JobInput { id, name: b.name.clone(), source: Source::System(b.system.clone()) }
}

#[test]
fn repeat_submission_is_a_verified_exact_hit() {
    let core = ServeCore::new(test_config());
    let bench = fig1();
    let first = core.submit_batch(vec![job(0, &bench)]);
    assert_eq!(first[0].verdict, "sat");
    assert_eq!(first[0].tier, Tier::Miss);
    let second = core.submit_batch(vec![job(1, &bench)]);
    assert_eq!(second[0].verdict, "sat");
    assert_eq!(second[0].tier, Tier::Exact, "same system again must hit the exact tier");
    assert!(second[0].verified, "exact hits must be re-verified before serving");
    let stats = core.stats();
    assert_eq!(stats.exact_hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.verify_failures, 0);
}

#[test]
fn unsat_verdicts_cache_and_replay() {
    let core = ServeCore::new(test_config());
    let bench = fibo_unsafe();
    let first = core.submit_batch(vec![job(0, &bench)]);
    assert_eq!(first[0].verdict, "unsat");
    let second = core.submit_batch(vec![job(1, &bench)]);
    assert_eq!(second[0].verdict, "unsat");
    assert_eq!(second[0].tier, Tier::Exact);
    assert!(second[0].verified);
}

#[test]
fn cache_disabled_never_hits() {
    let core = ServeCore::new(ServeConfig { cache: false, ..test_config() });
    let bench = fig1();
    for id in 0..2 {
        let out = core.submit_batch(vec![job(id, &bench)]);
        assert_eq!(out[0].verdict, "sat");
        assert_eq!(out[0].tier, Tier::Off);
    }
    assert_eq!(core.cache_len(), 0);
}

#[test]
fn perturbed_variants_solve_cold_like_a_standalone_solver() {
    // Bases first, so every one is cached; then their constant-
    // perturbed variants (replay class 0), which are new problems. No
    // cached entry may influence those solves: each one is a plain
    // cold solve whose verdict matches a standalone solver's.
    let core = ServeCore::new(test_config());
    let bases = [fig1(), fibo_unsafe(), invgen_sum()];
    let first = core.submit_batch(bases.iter().enumerate().map(|(i, b)| job(i as u64, b)).collect());
    assert!(first.iter().all(|o| o.verdict == "sat" || o.verdict == "unsat"), "{first:?}");
    let seed = ReplayConfig::default().seed;
    let mut variants = Vec::new();
    for b in &bases {
        for i in [0, 8] {
            variants.push((format!("{}@{i}", b.name), variant(&b.system, seed, i)));
        }
    }
    let jobs = variants
        .iter()
        .enumerate()
        .map(|(k, (name, sys))| JobInput {
            id: 100 + k as u64,
            name: name.clone(),
            source: Source::System(sys.clone()),
        })
        .collect();
    let out = core.submit_batch(jobs);
    for (o, (name, sys)) in out.iter().zip(&variants) {
        if o.tier == Tier::Exact {
            continue;
        }
        assert_eq!(o.tier, Tier::Miss, "{name}: a cache miss must be a cold solve");
        if o.verdict == "sat" || o.verdict == "unsat" {
            let budget = Budget::timeout(Duration::from_secs(60));
            let standalone = match CegarSolver::new(sys, SolverConfig::default()).solve(&budget) {
                SolveResult::Sat(_) => "sat",
                SolveResult::Unsat(_) => "unsat",
                SolveResult::Unknown(_) => "unknown",
            };
            assert_eq!(o.verdict, standalone, "{name}: served and standalone verdicts differ");
        }
    }
}

#[test]
fn batches_shard_across_the_pool_in_order() {
    let core = ServeCore::new(test_config());
    let benches = [fig1(), fibo_unsafe(), even_odd()];
    let jobs: Vec<JobInput> = benches.iter().enumerate().map(|(i, b)| job(i as u64, b)).collect();
    let out = core.submit_batch(jobs);
    assert_eq!(out.len(), 3);
    // Results come back in submission order regardless of completion
    // order.
    for (i, (o, b)) in out.iter().zip(benches.iter()).enumerate() {
        assert_eq!(o.id, i as u64);
        assert_eq!(o.name, b.name);
    }
    assert_eq!(out[0].verdict, "sat");
    assert_eq!(out[1].verdict, "unsat");
    assert_eq!(out[2].verdict, "sat");
}

#[test]
fn daemon_round_trip_over_unix_socket() {
    let dir = std::env::temp_dir().join(format!("linarb-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = BindAddr::Unix(dir.join("daemon.sock"));
    let core = Arc::new(ServeCore::new(test_config()));
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(&server_addr, core));

    // The daemon binds asynchronously; poll for the socket.
    let mut client = None;
    for _ in 0..200 {
        match Client::connect(&addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon did not come up");

    let pong = client.call("{\"op\":\"ping\"}").unwrap();
    assert!(pong.contains("\"ok\":true"), "bad ping reply: {pong}");

    let smt2 = fig1().system.to_smtlib();
    let req = format!(
        "{{\"op\":\"solve\",\"id\":1,\"name\":\"fig1\",\"format\":\"smt2\",\"program\":{}}}",
        linarb_trace::json_string(&smt2)
    );
    let reply = client.call(&req).unwrap();
    assert!(reply.contains("\"verdict\":\"sat\""), "bad solve reply: {reply}");
    assert!(reply.contains("\"cache\":\"miss\""), "first solve must miss: {reply}");

    // Same program again on a new connection: exact hit.
    drop(client);
    let mut client = Client::connect(&addr).unwrap();
    let reply = client.call(&req).unwrap();
    assert!(reply.contains("\"cache\":\"exact\""), "repeat must hit: {reply}");
    assert!(reply.contains("\"verified\":true"), "hit must be verified: {reply}");

    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    assert!(stats.contains("\"exact_hits\":1"), "bad stats: {stats}");

    let bye = client.call("{\"op\":\"shutdown\"}").unwrap();
    assert!(bye.contains("\"ok\":true"));
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_get_error_responses() {
    let dir = std::env::temp_dir().join(format!("linarb-serve-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = BindAddr::Unix(dir.join("daemon.sock"));
    let core = Arc::new(ServeCore::new(test_config()));
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(&server_addr, core));
    let mut client = None;
    for _ in 0..200 {
        match Client::connect(&addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon did not come up");
    let reply = client.call("this is not json").unwrap();
    assert!(reply.contains("\"op\":\"error\""), "bad error reply: {reply}");
    // The connection survives a bad request.
    let pong = client.call("{\"op\":\"ping\"}").unwrap();
    assert!(pong.contains("\"ok\":true"));
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_jobs_get_error_replies() {
    let dir = std::env::temp_dir().join(format!("linarb-serve-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = BindAddr::Unix(dir.join("daemon.sock"));
    let core = Arc::new(ServeCore::new(test_config()));
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(&server_addr, core));
    let mut client = None;
    for _ in 0..200 {
        match Client::connect(&addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon did not come up");
    let solve = |id: u64, format: &str, program: &str| {
        format!(
            "{{\"op\":\"solve\",\"id\":{id},\"name\":\"job{id}\",\"format\":\"{format}\",\"program\":{}}}",
            linarb_trace::json_string(program)
        )
    };
    const DEPTH: usize = 20_000;
    let deep_smt2 = format!(
        "(declare-fun p (Int) Bool)\n(assert (forall ((x Int)) (=> {}(> x 0){} (p x))))\n",
        "(not ".repeat(DEPTH),
        ")".repeat(DEPTH)
    );
    let deep_c = format!(
        "void main() {{ int y = {}1{}; assert(y == 1); }}\n",
        "(".repeat(DEPTH),
        ")".repeat(DEPTH)
    );
    for (id, format, program) in [(1, "smt2", &deep_smt2), (2, "c", &deep_c)] {
        let reply = client.call(&solve(id, format, program)).unwrap();
        assert!(reply.contains("\"verdict\":\"error\""), "deep {format} job: {reply}");
        assert!(reply.contains("nested deeper than"), "deep {format} job: {reply}");
    }
    // The daemon survives and still solves.
    let reply = client.call(&solve(3, "smt2", &fig1().system.to_smtlib())).unwrap();
    assert!(reply.contains("\"verdict\":\"sat\""), "solve after deep jobs: {reply}");
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_driver_small_run_agrees_and_hits() {
    let bases: Vec<(String, linarb_logic::ChcSystem)> = [fig1(), fibo_unsafe()]
        .into_iter()
        .map(|b| (b.name.clone(), b.system))
        .collect();
    let cfg = ReplayConfig {
        variants_per_base: 12,
        threads: 2,
        timeout: Duration::from_secs(60),
        ..ReplayConfig::default()
    };
    let out = run_replay(&bases, &cfg);
    assert_eq!(out.jobs, 2 * 13);
    assert_eq!(out.mismatches, 0, "cache must never change a verdict");
    assert_eq!(out.warm.unknown, 0);
    // Rename/reorder/scale variants (7 of every 8) must hit the exact
    // tier after each base's first solve: 12 variants per base means
    // 10 exact-class ones each (indices 0 and 8 are perturbations).
    assert!(
        out.warm.exact_hits >= 20,
        "expected most mutants to exact-hit, got {} (miss {})",
        out.warm.exact_hits,
        out.warm.misses
    );
    assert_eq!(out.cold.exact_hits, 0, "cold side must not hit");
    assert_eq!(out.warm.verify_failures, 0);
}

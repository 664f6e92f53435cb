//! Manual sizing harness for the replay driver: prints the replay
//! report for a configurable variant count (`REPLAY_VARIANTS`,
//! default 25) over the fast suite bases.

use linarb_serve::replay::{run_replay, ReplayConfig};

fn main() {
    let variants: usize = std::env::var("REPLAY_VARIANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let bases: Vec<(String, linarb_logic::ChcSystem)> = [
        linarb_suite::fig1(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::cggmp2005(),
        linarb_suite::hhk2008(),
        linarb_suite::invgen_sum(),
        linarb_suite::program_c_fibo(),
        linarb_suite::jm2006(),
    ]
    .into_iter()
    .map(|b| (b.name.clone(), b.system))
    .collect();
    let cfg = ReplayConfig { variants_per_base: variants, ..ReplayConfig::default() };
    let out = run_replay(&bases, &cfg);
    println!(
        "jobs {} | warm {:.2}s ({:.0}/s, p50 {}us p99 {}us, exact {} miss {} vfail {}) | \
         cold {:.2}s ({:.0}/s) | speedup {:.2}x | mismatches {} | unknown warm {} cold {}",
        out.jobs,
        out.warm.wall_s,
        out.warm.throughput,
        out.warm.p50_us,
        out.warm.p99_us,
        out.warm.exact_hits,
        out.warm.misses,
        out.warm.verify_failures,
        out.cold.wall_s,
        out.cold.throughput,
        out.speedup,
        out.mismatches,
        out.warm.unknown,
        out.cold.unknown
    );
}

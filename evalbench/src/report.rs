//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("solved", "count"),
    ("par2_s", "s"),
    ("verdict_geomean_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`); a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("frontend.compile_s", "s"),
    ("frontend.canon_s", "s"),
    ("logic.parse_s", "s"),
    ("core.new_s", "s"),
    ("core.solve_s", "s"),
    ("core.solve_self_s", "s"),
    ("core.iterations", "count"),
    ("core.smt_checks", "count"),
    ("core.smt_checks_skipped", "count"),
    ("core.samples", "count"),
    ("core.seed_hits", "count"),
    ("core.seeded_atoms", "count"),
    ("ml.learn_s", "s"),
    ("ml.learn_calls", "count"),
    ("ml.learn_errors", "count"),
    ("ml.memo_hit_ratio", "ratio"),
    ("smt.simplex_pivots", "count"),
    ("smt.theory_backtracks", "count"),
    ("sat.learned_clauses", "count"),
    ("cert.verify_s", "s"),
    ("cert.checks", "count"),
    ("cert.failures", "count"),
    ("serve.exact_hits", "count"),
    ("serve.near_hits", "count"),
    ("serve.misses", "count"),
    ("serve.verify_failures", "count"),
    ("serve.errors", "count"),
    ("serve.exact_hit_ratio", "ratio"),
    ("serve.daemon_s", "s"),
    ("serve.wire_s", "s"),
];

/// Named values of one pass.
pub type Values = BTreeMap<&'static str, f64>;

/// Per-name median over passes (names missing from a pass count as 0).
pub fn median_over(passes: &[Values]) -> Values {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| p.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, crate::stats::median(&v))
        })
        .collect()
}

/// What a workload run hands back to `main`.
pub struct Report {
    /// No wrong verdict, failed certificate, CLI drift or unfaithful
    /// trace.
    pub correct: bool,
    /// Operations attempted (instances × passes, or jobs).
    pub attempted: u64,
    /// Operations that failed: wrong verdicts and errors. An unknown
    /// within the budget is an answer, charged in the timing metrics.
    pub failed: u64,
    /// Median end-to-end values.
    pub end_to_end: Values,
    /// Median per-layer values (empty unless traced).
    pub per_layer: Values,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn render(values: &Values, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, unit)| {
            let v = values.get(n).copied().unwrap_or(0.0);
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Report {
    /// Prints the notes, a metric table, and the one-line JSON result.
    pub fn print(&self, traced: bool) {
        for line in &self.notes {
            println!("{line}");
        }
        for (title, values, names) in [
            ("end-to-end", &self.end_to_end, &END_TO_END[..]),
            ("per-layer", &self.per_layer, &PER_LAYER[..]),
        ] {
            if values.is_empty() {
                continue;
            }
            println!("{title}:");
            for (n, unit) in names {
                println!(
                    "  {n:<26} {:>16.6} {unit}",
                    values.get(n).copied().unwrap_or(0.0)
                );
            }
        }
        let metrics = if traced {
            render(&self.per_layer, &PER_LAYER)
        } else {
            render(&self.end_to_end, &END_TO_END)
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

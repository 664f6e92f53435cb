//! Bench-regression comparison: turns two `BENCH_<n>.json` reports
//! into per-benchmark / per-phase deltas (`BENCH_DIFF.md`) and a hard
//! verdict.
//!
//! The BENCH trajectory used to be prose — a human eyeballing two JSON
//! files. This module makes it a contract: `perf_smoke
//! --compare BENCH_<prev>.json` (and the CI gate in `scripts/ci.sh`)
//! **fails** on
//!
//! * a solved-count regression in either oracle mode, or
//! * a wall-time regression past the tolerance factor (default 1.25 =
//!   +25%) on the *commonly-solved* subset of a mode — benchmarks
//!   solved in both reports, so timeouts can't masquerade as slowdowns
//!   — with an absolute floor ([`CompareOptions::abs_floor_s`])
//!   keeping sub-second jitter from tripping the gate.
//!
//! Per-benchmark regressions below the hard gate and phase-time shifts
//! are reported as warnings in the diff. Reports are parsed with the
//! in-tree JSON reader and both field generations are understood
//! (pre-PR-8 `speedup` and the current `fresh_vs_incremental_ratio`;
//! missing per-benchmark verdicts fall back to a wall-vs-timeout
//! heuristic).

use linarb_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One benchmark's reading inside one mode.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSample {
    /// Benchmark name.
    pub name: String,
    /// Wall seconds.
    pub wall_s: f64,
    /// Whether the run reached a definite verdict. Reports since PR 8
    /// record this per benchmark; for older reports it is inferred
    /// (wall < 95% of the timeout).
    pub solved: bool,
}

/// One oracle mode's section of a BENCH report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModeReport {
    /// Mode total wall seconds.
    pub wall_s: f64,
    /// The `phases` object (oracle_s, learner_s, …), flattened.
    pub phases: BTreeMap<String, f64>,
    /// Per-benchmark walls.
    pub benchmarks: Vec<BenchSample>,
}

/// A parsed `BENCH_<n>.json`, as much of it as comparisons need.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Where it came from (file name; used in headings).
    pub label: String,
    /// Number of benchmarks in the suite.
    pub suite_size: u64,
    /// Per-benchmark budget, milliseconds.
    pub timeout_ms: f64,
    /// The oracle modes (`fresh`, `incremental`) plus, since PR 9, the
    /// `portfolio` section (same shape, racing all engines).
    pub modes: BTreeMap<String, ModeReport>,
    /// Definite verdicts per mode, from the report's top level.
    pub solved: BTreeMap<String, u64>,
    /// `fresh_vs_incremental_ratio` (or legacy `speedup`).
    pub ratio: Option<f64>,
    /// Structured `speedup_warnings` entries (raw JSON objects,
    /// re-rendered in the diff).
    pub speedup_warnings: Vec<String>,
    /// Top-level fields this comparer does not understand — reports
    /// from newer harness versions carry sections older gates never
    /// heard of. They are ignored for gating and listed as a note in
    /// the diff, so a BENCH trajectory stays comparable across harness
    /// generations.
    pub unrecognized: Vec<String>,
}

/// Top-level report fields this comparer understands (everything else
/// is noted and ignored — see [`BenchReport::unrecognized`]).
const KNOWN_FIELDS: &[&str] = &[
    "suite_size",
    "timeout_ms",
    "fresh",
    "incremental",
    "portfolio",
    "serve",
    "fresh_solved",
    "incremental_solved",
    "portfolio_solved",
    "fresh_vs_incremental_ratio",
    "solved_subset_fresh_vs_incremental_ratio",
    "full_check_delta",
    "speedup",
    "speedup_warnings",
    "parallel",
];

impl BenchReport {
    /// Parses a report out of JSON text. `label` names the source in
    /// diff output. Returns `None` when the document lacks the BENCH
    /// shape entirely.
    pub fn parse(label: &str, text: &str) -> Option<BenchReport> {
        let doc = json::parse(text).ok()?;
        let timeout_ms = doc.get("timeout_ms")?.as_f64()?;
        let mut report = BenchReport {
            label: label.to_string(),
            suite_size: doc.get("suite_size")?.as_f64()? as u64,
            timeout_ms,
            ..BenchReport::default()
        };
        for mode in ["fresh", "incremental", "portfolio"] {
            let Some(m) = doc.get(mode) else { continue };
            let mut mr = ModeReport {
                wall_s: m.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
                ..ModeReport::default()
            };
            if let Some(Json::Obj(phases)) = m.get("phases") {
                for (k, v) in phases {
                    if let Some(x) = v.as_f64() {
                        mr.phases.insert(k.clone(), x);
                    }
                }
            }
            if let Some(Json::Arr(items)) = m.get("benchmarks") {
                for b in items {
                    let (Some(name), Some(wall_s)) = (
                        b.get("name").and_then(Json::as_str),
                        b.get("wall_s").and_then(Json::as_f64),
                    ) else {
                        continue;
                    };
                    let solved = match b.get("verdict").and_then(Json::as_str) {
                        Some(v) => v != "unknown",
                        // Pre-PR-8 reports carry no per-benchmark
                        // verdict; near-timeout walls were timeouts.
                        None => wall_s < timeout_ms / 1000.0 * 0.95,
                    };
                    mr.benchmarks.push(BenchSample { name: name.to_string(), wall_s, solved });
                }
            }
            report.modes.insert(mode.to_string(), mr);
            if let Some(n) = doc.get(&format!("{mode}_solved")).and_then(Json::as_f64) {
                report.solved.insert(mode.to_string(), n as u64);
            }
        }
        report.ratio = doc
            .get("fresh_vs_incremental_ratio")
            .or_else(|| doc.get("speedup"))
            .and_then(Json::as_f64);
        if let Some(Json::Arr(warns)) = doc.get("speedup_warnings") {
            for w in warns {
                report.speedup_warnings.push(render_json(w));
            }
        }
        if let Json::Obj(m) = &doc {
            report.unrecognized = m
                .keys()
                .filter(|k| !KNOWN_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect();
        }
        Some(report)
    }

    /// Multiplies every wall reading by `factor` — the gate's
    /// self-test hook (`LINARB_SMOKE_INJECT_SLOWDOWN`): an injected 2×
    /// slowdown must make [`compare`] fail.
    pub fn inject_slowdown(&mut self, factor: f64) {
        for mode in self.modes.values_mut() {
            mode.wall_s *= factor;
            for b in &mut mode.benchmarks {
                b.wall_s *= factor;
            }
            for v in mode.phases.values_mut() {
                *v *= factor;
            }
        }
    }
}

fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => linarb_trace::json_string(s),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(m) => {
            let inner: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}: {}", linarb_trace::json_string(k), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Gate thresholds for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Wall-regression factor that fails the gate (1.25 = +25%).
    pub wall_tolerance: f64,
    /// Minimum absolute regression (seconds) on a mode's
    /// commonly-solved subset before the factor gate applies — keeps
    /// sub-second suites from failing on scheduler jitter.
    pub abs_floor_s: f64,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions { wall_tolerance: 1.25, abs_floor_s: 0.25 }
    }
}

/// The outcome of comparing two BENCH reports.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// The full `BENCH_DIFF.md` document.
    pub markdown: String,
    /// Hard-gate violations; non-empty fails CI.
    pub failures: Vec<String>,
    /// Sub-gate regressions worth reading.
    pub warnings: Vec<String>,
}

impl Comparison {
    /// `true` when the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn pct(prev: f64, cur: f64) -> String {
    if prev <= 0.0 {
        return "—".to_string();
    }
    format!("{:+.1}%", (cur / prev - 1.0) * 100.0)
}

/// Compares `cur` against `prev` under `opts`. See the module docs for
/// the gate rules.
pub fn compare(prev: &BenchReport, cur: &BenchReport, opts: CompareOptions) -> Comparison {
    let mut out = Comparison::default();
    let mut md = String::new();
    let _ = writeln!(md, "# BENCH diff: {} → {}\n", prev.label, cur.label);

    // Solved counts: the one number that must never go down.
    let _ = writeln!(md, "## Solved\n");
    let _ = writeln!(md, "| mode | {} | {} | gate |", prev.label, cur.label);
    let _ = writeln!(md, "|------|---:|---:|------|");
    for (mode, &p) in &prev.solved {
        let c = cur.solved.get(mode).copied().unwrap_or(0);
        let gate = if c < p {
            out.failures.push(format!(
                "solved-count regression in {mode} mode: {p} → {c}"
            ));
            "**FAIL**"
        } else {
            "ok"
        };
        let _ = writeln!(md, "| {mode} | {p} | {c} | {gate} |");
    }

    // Wall time on each mode's commonly-solved subset.
    let _ = writeln!(md, "\n## Wall time (commonly-solved subset)\n");
    let _ = writeln!(
        md,
        "| mode | n | {} | {} | Δ | gate (≤{:.0}% or ≤{:.2}s) |",
        prev.label,
        cur.label,
        (opts.wall_tolerance - 1.0) * 100.0,
        opts.abs_floor_s
    );
    let _ = writeln!(md, "|------|--:|---:|---:|---:|------|");
    for (mode, pm) in &prev.modes {
        let Some(cm) = cur.modes.get(mode) else { continue };
        let cur_by_name: BTreeMap<&str, &BenchSample> =
            cm.benchmarks.iter().map(|b| (b.name.as_str(), b)).collect();
        let mut p_sum = 0.0;
        let mut c_sum = 0.0;
        let mut n = 0usize;
        for pb in &pm.benchmarks {
            if let Some(cb) = cur_by_name.get(pb.name.as_str()) {
                if pb.solved && cb.solved {
                    p_sum += pb.wall_s;
                    c_sum += cb.wall_s;
                    n += 1;
                    // Per-benchmark advisory (never a hard failure —
                    // single benchmarks are too noisy to gate on).
                    if cb.wall_s > pb.wall_s * opts.wall_tolerance
                        && cb.wall_s - pb.wall_s > 0.1
                    {
                        out.warnings.push(format!(
                            "{mode}/{}: {:.3}s → {:.3}s ({})",
                            pb.name,
                            pb.wall_s,
                            cb.wall_s,
                            pct(pb.wall_s, cb.wall_s)
                        ));
                    }
                }
            }
        }
        let regressed =
            c_sum > p_sum * opts.wall_tolerance && c_sum - p_sum > opts.abs_floor_s;
        let gate = if regressed {
            out.failures.push(format!(
                "wall regression in {mode} mode on the commonly-solved subset: \
                 {p_sum:.3}s → {c_sum:.3}s ({})",
                pct(p_sum, c_sum)
            ));
            "**FAIL**"
        } else {
            "ok"
        };
        let _ = writeln!(
            md,
            "| {mode} | {n} | {p_sum:.3}s | {c_sum:.3}s | {} | {gate} |",
            pct(p_sum, c_sum)
        );
    }

    // Per-benchmark table (informational).
    let _ = writeln!(md, "\n## Per-benchmark wall (s)\n");
    let mode_names: Vec<&String> = prev.modes.keys().collect();
    let mut header = String::from("| benchmark |");
    let mut rule = String::from("|-----------|");
    for m in &mode_names {
        let _ = write!(header, " {m} prev | {m} cur | Δ |");
        rule.push_str("---:|---:|---:|");
    }
    let _ = writeln!(md, "{header}");
    let _ = writeln!(md, "{rule}");
    let names: Vec<&str> = prev
        .modes
        .values()
        .next()
        .map(|m| m.benchmarks.iter().map(|b| b.name.as_str()).collect())
        .unwrap_or_default();
    for name in names {
        let mut row = format!("| {name} |");
        for m in &mode_names {
            let find = |r: &BenchReport| -> Option<(f64, bool)> {
                r.modes.get(*m)?.benchmarks.iter().find(|b| b.name == name).map(|b| (b.wall_s, b.solved))
            };
            match (find(prev), find(cur)) {
                (Some((p, ps)), Some((c, cs))) => {
                    let mark = |solved: bool| if solved { "" } else { "ᵗ" };
                    let _ = write!(
                        row,
                        " {p:.3}{} | {c:.3}{} | {} |",
                        mark(ps),
                        mark(cs),
                        pct(p, c)
                    );
                }
                _ => row.push_str(" — | — | — |"),
            }
        }
        let _ = writeln!(md, "{row}");
    }
    let _ = writeln!(md, "\nᵗ = no definite verdict (timeout).");

    // Phase deltas (informational).
    let _ = writeln!(md, "\n## Phases\n");
    let _ = writeln!(md, "| mode | phase | prev | cur | Δ |");
    let _ = writeln!(md, "|------|-------|---:|---:|---:|");
    for (mode, pm) in &prev.modes {
        let Some(cm) = cur.modes.get(mode) else { continue };
        for (phase, &p) in &pm.phases {
            let c = cm.phases.get(phase).copied().unwrap_or(0.0);
            let _ = writeln!(md, "| {mode} | {phase} | {p:.3}s | {c:.3}s | {} |", pct(p, c));
        }
    }

    // Carried-through speedup warnings of the current report.
    if !cur.speedup_warnings.is_empty() {
        let _ = writeln!(md, "\n## Speedup warnings ({})\n", cur.label);
        for w in &cur.speedup_warnings {
            let _ = writeln!(md, "- `{w}`");
        }
    }

    if !out.warnings.is_empty() {
        let _ = writeln!(md, "\n## Per-benchmark regressions (advisory)\n");
        for w in &out.warnings {
            let _ = writeln!(md, "- {w}");
        }
    }

    // Forward compatibility: newer reports may carry sections this
    // comparer predates. They never gate; they are only noted.
    for (rep, role) in [(prev, "older"), (cur, "newer")] {
        if !rep.unrecognized.is_empty() {
            let _ = writeln!(
                md,
                "\n> Note: {} ({role} report) carries fields unknown to this comparer, \
                 ignored for gating: {}.",
                rep.label,
                rep.unrecognized.join(", ")
            );
        }
    }

    let _ = writeln!(md, "\n## Verdict\n");
    if out.failures.is_empty() {
        let _ = writeln!(md, "**PASS** — no solved-count or gated wall regression.");
    } else {
        let _ = writeln!(md, "**FAIL**\n");
        for f in &out.failures {
            let _ = writeln!(md, "- {f}");
        }
    }
    out.markdown = md;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal report in the current (PR 8) shape.
    fn report(label: &str, wall_a: f64, wall_b: f64, solved: u64, verdict_b: &str) -> BenchReport {
        let text = format!(
            r#"{{
              "suite_size": 2,
              "timeout_ms": 30000,
              "fresh": {{
                "wall_s": {sum:.3},
                "phases": {{"oracle_s": {wall_a:.3}, "learner_s": 0.1}},
                "benchmarks": [
                  {{"name": "a", "wall_s": {wall_a:.3}, "verdict": "sat"}},
                  {{"name": "b", "wall_s": {wall_b:.3}, "verdict": "{verdict_b}"}}
                ]
              }},
              "incremental": {{
                "wall_s": {sum:.3},
                "phases": {{"oracle_s": {wall_a:.3}}},
                "benchmarks": [
                  {{"name": "a", "wall_s": {wall_a:.3}, "verdict": "sat"}},
                  {{"name": "b", "wall_s": {wall_b:.3}, "verdict": "{verdict_b}"}}
                ]
              }},
              "fresh_solved": {solved},
              "incremental_solved": {solved},
              "fresh_vs_incremental_ratio": 1.0,
              "speedup_warnings": [{{"kind": "low_4t_speedup", "speedup_4t": 0.7}}]
            }}"#,
            sum = wall_a + wall_b,
        );
        BenchReport::parse(label, &text).expect("parse")
    }

    #[test]
    fn parses_both_field_generations() {
        let new = report("new", 1.0, 2.0, 2, "sat");
        assert_eq!(new.ratio, Some(1.0));
        assert_eq!(new.solved["fresh"], 2);
        assert_eq!(new.speedup_warnings.len(), 1);
        // Legacy shape: `speedup` field, no verdicts. BENCH_7-style.
        let legacy = r#"{
          "suite_size": 1, "timeout_ms": 1000,
          "fresh": {"wall_s": 0.999,
                    "benchmarks": [{"name": "x", "wall_s": 0.999}]},
          "fresh_solved": 0, "speedup": 0.048
        }"#;
        let rep = BenchReport::parse("legacy", legacy).unwrap();
        assert_eq!(rep.ratio, Some(0.048));
        // 0.999s against a 1s timeout: inferred unsolved.
        assert!(!rep.modes["fresh"].benchmarks[0].solved);
    }

    #[test]
    fn parses_reports_with_retired_serve_counters() {
        // Reports up to BENCH_10 carry near-tier counters in the
        // serve section; the section is informational and still parses.
        let text = r#"{
          "suite_size": 1, "timeout_ms": 1000,
          "incremental": {"wall_s": 0.5,
                          "benchmarks": [{"name": "x", "wall_s": 0.5, "verdict": "sat"}]},
          "incremental_solved": 1,
          "serve": {"bases": 1, "jobs": 2,
                    "warm": {"exact_hits": 1, "near_hits": 1, "misses": 0},
                    "near_hit_rate": 0.5, "mismatches": 0}
        }"#;
        let rep = BenchReport::parse("old", text).expect("parse");
        assert_eq!(rep.solved["incremental"], 1);
        assert!(rep.unrecognized.is_empty(), "{:?}", rep.unrecognized);
        assert!(compare(&rep, &rep, CompareOptions::default()).passed());
    }

    #[test]
    fn identical_reports_pass() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        let cur = report("cur", 1.0, 2.0, 2, "sat");
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp.markdown.contains("**PASS**"));
    }

    #[test]
    fn small_jitter_passes() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        let cur = report("cur", 1.1, 2.2, 2, "sat"); // +10% < 25%
        assert!(compare(&prev, &cur, CompareOptions::default()).passed());
    }

    #[test]
    fn injected_2x_slowdown_fails() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        let mut cur = report("cur", 1.0, 2.0, 2, "sat");
        cur.inject_slowdown(2.0);
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(!cmp.passed());
        assert!(
            cmp.failures.iter().any(|f| f.contains("wall regression")),
            "{:?}",
            cmp.failures
        );
        assert!(cmp.markdown.contains("**FAIL**"));
    }

    #[test]
    fn solved_count_drop_fails() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        let cur = report("cur", 1.0, 2.0, 1, "unknown");
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(cmp.failures.iter().any(|f| f.contains("solved-count")), "{:?}", cmp.failures);
    }

    #[test]
    fn timeouts_excluded_from_wall_gate() {
        // Benchmark b times out in both reports; only a (1s) is gated.
        // b's wall doubling must not fail the gate.
        let prev = report("prev", 1.0, 30.0, 1, "unknown");
        let mut cur = report("cur", 1.0, 30.0, 1, "unknown");
        cur.modes.get_mut("fresh").unwrap().benchmarks[1].wall_s = 60.0;
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }

    #[test]
    fn abs_floor_shields_tiny_suites() {
        // 3x regression but only +80ms total: below the 0.25s floor.
        let prev = report("prev", 0.02, 0.02, 2, "sat");
        let cur = report("cur", 0.06, 0.06, 2, "sat");
        assert!(compare(&prev, &cur, CompareOptions::default()).passed());
    }

    #[test]
    fn unknown_top_level_fields_are_noted_not_gated() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        // A report from a future harness: an extra top-level section
        // this comparer has never heard of.
        let text = r#"{
          "suite_size": 2, "timeout_ms": 30000,
          "fresh": {"wall_s": 3.0, "benchmarks": [
            {"name": "a", "wall_s": 1.0, "verdict": "sat"},
            {"name": "b", "wall_s": 2.0, "verdict": "sat"}]},
          "incremental": {"wall_s": 3.0, "benchmarks": [
            {"name": "a", "wall_s": 1.0, "verdict": "sat"},
            {"name": "b", "wall_s": 2.0, "verdict": "sat"}]},
          "fresh_solved": 2,
          "incremental_solved": 2,
          "quantum_oracle": {"qubits": 17},
          "novel_metric": 42
        }"#;
        let cur = BenchReport::parse("cur", text).unwrap();
        assert_eq!(cur.unrecognized, vec!["novel_metric", "quantum_oracle"]);
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(cmp.passed(), "unknown fields must not gate: {:?}", cmp.failures);
        assert!(
            cmp.markdown.contains("novel_metric, quantum_oracle"),
            "diff must note the ignored fields:\n{}",
            cmp.markdown
        );
        // The current report shape itself parses clean.
        assert!(prev.unrecognized.is_empty());
    }

    #[test]
    fn diff_mentions_phases_and_warnings() {
        let prev = report("prev", 1.0, 2.0, 2, "sat");
        let cur = report("cur", 1.4, 2.8, 2, "sat");
        let cmp = compare(&prev, &cur, CompareOptions::default());
        assert!(cmp.markdown.contains("oracle_s"));
        assert!(cmp.markdown.contains("low_4t_speedup"));
        // +40% per-benchmark: advisory warnings present.
        assert!(!cmp.warnings.is_empty());
    }
}

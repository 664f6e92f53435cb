//! The CLI drift guard: runs the built `linarb` binary on instances
//! the in-process run solved and requires the same verdict and CEGAR
//! iteration count, so the CLI's defaults cannot drift away from
//! `SolverConfig::default()` unnoticed.

use crate::check::Verdict;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a guard invocation may run before it is killed.
const CLI_DEADLINE: Duration = Duration::from_secs(60);

/// Runs `linarb --stats --timeout-ms <budget> <file>`; returns its
/// verdict and `core.iterations`.
pub fn run(linarb: &Path, file: &Path, budget: Duration) -> Result<(Verdict, u64), String> {
    let mut cmd = Command::new(linarb);
    cmd.arg("--stats")
        .arg("--timeout-ms")
        .arg(budget.as_millis().to_string())
        .arg(file)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", linarb.display()))?;
    let start = Instant::now();
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if start.elapsed() > CLI_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{} did not finish", file.display()));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let verdict = Verdict::from_wire(text.lines().next().unwrap_or("").trim());
    let key = "\"core.iterations\":";
    let iterations = text
        .find(key)
        .map(|at| &text[at + key.len()..])
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .ok_or_else(|| {
            format!(
                "no core.iterations in the --stats output for {}",
                file.display()
            )
        })?;
    Ok((verdict, iterations))
}

/// Writes `text` to `dir/name`, runs the CLI on it and compares with
/// the in-process verdict and iteration count. Returns a note line, or
/// the mismatch as an error.
pub fn guard(
    linarb: &Path,
    dir: &Path,
    name: &str,
    text: &str,
    expected: (Verdict, u64),
    budget: Duration,
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let file = dir.join(name);
    std::fs::write(&file, text).map_err(|e| e.to_string())?;
    let got = run(linarb, &file, budget)?;
    if got == expected {
        Ok(format!(
            "cli guard: {name}: {:?}, {} iterations, same as in-process",
            got.0, got.1
        ))
    } else {
        Err(format!(
            "cli guard: {name}: CLI gives {:?} after {} iterations, in-process {:?} after {}",
            got.0, got.1, expected.0, expected.1
        ))
    }
}

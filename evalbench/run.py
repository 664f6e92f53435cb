#!/usr/bin/env python3
"""Builds the solver and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 evalbench/run.py --workload <paper_eval|scaling|serve_resubmit> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 evalbench/run.py --self-test

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Every
LINARB_* variable is removed from the environment, so the solver runs
with its built-in defaults. The last line of standard output is the
result as one JSON object; the exit code is 0 only for a correct run.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DEADLINE_S = 840
RUN_DEADLINE_S = 175


def environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LINARB_")}
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    return env


def build(env):
    """Builds the `linarb` binary and the benchmark; returns their paths."""
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "linarb"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_DEADLINE_S)
        if done.returncode != 0:
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "linarb"), os.path.join(release, "evalbench")


def process_tree(pid):
    """`pid` and all its descendants."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            children = [int(c) for c in f.read().split()]
    except OSError:
        children = []
    return [pid] + [p for c in children for p in process_tree(c)]


def run(cmd, env, capture=False):
    """Runs the benchmark binary under the run deadline; a deadline kill
    also stops the daemon it may have started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        for pid in process_tree(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.communicate()
        print("evalbench: run exceeded its deadline", file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def self_test(linarb, bench, work, env):
    """The checker catches faults, and an injected wrong answer fails a run."""
    code, _ = run([bench, "--self-test"], env)
    ok = code == 0
    for workload in ["scaling", "serve_resubmit"]:
        cmd = [bench, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
               "--inject-fault", "--linarb", linarb, "--work-dir", work]
        code, out = run(cmd, env, capture=True)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        caught = code != 0 and '"correct":false' in last
        print(f"{'ok  ' if caught else 'FAIL'} {workload}: injected wrong answer "
              f"exits {code} with correct=false")
        ok = ok and caught
    return 0 if ok else 1


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("evalbench: the solver's sources are not next to the benchmark", file=sys.stderr)
        return 2
    env = environment()
    try:
        built = build(env)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"evalbench: build failed: {e}", file=sys.stderr)
        return 2
    if built is None:
        print("evalbench: build failed", file=sys.stderr)
        return 2
    linarb, bench = built
    work = os.path.join(env["CARGO_TARGET_DIR"], "evalbench-run")
    if os.path.commonpath([work, ROOT]) == ROOT:
        work = os.path.relpath(work, ROOT)
    if sys.argv[1:] == ["--self-test"]:
        return self_test(linarb, bench, work, env)
    code, _ = run([bench, *sys.argv[1:], "--linarb", linarb, "--work-dir", work], env)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark and the serving daemon from source, then run one workload.

    python3 perfbench/run.py --workload riceps-large --seed 1 --seconds 15 --trace 0

Run it from the repository root (or anywhere: paths resolve against this
file). Both builds share CARGO_TARGET_DIR, which defaults to `.bench_build`
at the repository root. Cargo's own output goes to stderr, so the last line
of stdout is the harness's JSON result. Every argument is passed through to
the `perfbench` harness (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The harness: a package of its own with path dependencies on the
        # repository's crates.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        # The daemon miss-cold's traced run drives, built by the root
        # workspace.
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "delin-bench", "--bin", "delin_serve"],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    out = os.path.join(target, "perfbench-out")
    exe = os.path.join(release, "perfbench")
    argv = [exe, *sys.argv[1:], "--out", out, "--bin-dir", release]
    sys.stdout.flush()
    os.chdir(ROOT)
    # The harness replaces this process: it owns and waits for every child.
    os.execv(exe, argv)
    return 1


if __name__ == "__main__":
    sys.exit(main())

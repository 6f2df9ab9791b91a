#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`); traced runs write their spans and self-time tables under
`.bench_out`. The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--out", os.path.join(root, ".bench_out")]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

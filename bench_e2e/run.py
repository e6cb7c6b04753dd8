#!/usr/bin/env python3
"""Builds the bench_e2e binary from source and runs one benchmark pass.

Usage, from the root of a checkout:

    python3 bench_e2e/run.py --workload <fig5-paper|churn-sessions|flash-remap> \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
checkout root). Build output goes to stderr, so the last line of stdout
is the binary's JSON result. The exit code is the binary's, or non-zero
when the build fails (for instance when the simulator crates are absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FECDN_")}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("bench_e2e: build failed", file=sys.stderr)
        return built.returncode or 2
    exe = os.path.join(target, "release", "bench_e2e")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"bench_e2e: run failed: {e}", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

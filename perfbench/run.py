#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). All arguments are passed to the benchmark
binary, whose last line of output is the result; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    stray = sorted(k for k in os.environ if k.startswith("RUCHE_"))
    if stray:
        print(f"perfbench: refusing to run with {', '.join(stray)} set", file=sys.stderr)
        return 2
    if not os.path.isdir("crates") or not os.path.isfile("perfbench/Cargo.toml"):
        print("perfbench: run from the root of the repository", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

The Go build cache, the binary and the traced run's span files go to the
directory named by CARGO_TARGET_DIR (default .bench_build), so nothing is
written outside the checkout. Every argument is passed to the benchmark;
its standard output is the benchmark's, and a failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except OSError as err:
        print(f"perfbench: cannot run the Go toolchain: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=dict(os.environ, CARGO_TARGET_DIR=out), timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())

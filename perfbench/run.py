#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim-node --seed 1 --seconds 20 --trace 0

Every argument is passed on to the harness. The Go build cache, the
binary and the trace file all live under .bench_build/ at the root, so a
run reads and writes nothing outside the checkout but the Go toolchain.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    """The environment of the go command: caches inside the checkout,
    the installed toolchain only, no workspace or inherited flags."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s holds no go.mod; run from a full checkout\n" % ROOT)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 3
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    try:
        # From the root, the harness writes its trace file under BUILD.
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the Go benchmark (this directory's module, which uses the
repository's packages through a replace directive) into .bench_build/ with
every Go cache, temp and config directory kept inside .bench_build/, then
runs it with the same arguments. The benchmark's standard output passes
through unchanged; its last line is the JSON result. Without the
repository's sources next to this directory the build fails, and so does
this script, without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.abspath(__file__))


def go_env():
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.run(
        [binary] + sys.argv[1:], cwd=ROOT, env=env
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

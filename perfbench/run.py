#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 20 --trace 0

It compiles the benchmark (this directory, a Go module of its own that
uses the repository as a dependency) and the prefgcd daemon from the
checkout's sources into .bench_build/perfbench, keeping the Go build
cache there too, then runs the benchmark with the given arguments. The
benchmark's last line of output is its JSON result. Outside a checkout
of the repository the build fails and the script exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out = os.path.join(".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",  # never download a toolchain
        GOPROXY="off",  # nor modules: the build uses only the checkout
        GOFLAGS="-mod=readonly",  # the build never rewrites go.mod
        GOCACHE=os.path.abspath(os.path.join(out, "gocache")),
        GOPATH=os.path.abspath(os.path.join(out, "gopath")),
        XDG_CONFIG_HOME=os.path.abspath(os.path.join(out, "config")),
        CGO_ENABLED="0",
    )
    build = subprocess.run(
        ["go", "build", "-o", os.path.abspath(out) + os.sep, ".", "prefcolor/cmd/prefgcd"],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--prefgcd", os.path.join(out, "prefgcd"),
                           "--trace-dir", os.path.join(out, "trace")]
    return subprocess.run([os.path.join(out, "perfbench")] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

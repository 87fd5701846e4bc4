#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 10 --trace 0

Every argument is passed on to the benchmark binary (see main.go). The Go
build cache, the binary, the generated-graph cache and the trace files all
live under .bench_build/ in the checkout. The build fails, and this script
exits non-zero without printing a result, when the checkout holds only the
benchmark and not the module it measures.
"""

import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
        # The result's commit stamp must not come from a repository that
        # merely encloses the checkout.
        GIT_CEILING_DIRECTORIES=os.path.dirname(root),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    child = subprocess.Popen([exe, "--dir", build] + sys.argv[1:], cwd=root)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the ib12x benchmark (the Go program in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload pingpong-small --seed 1 --seconds 10 --trace 0

The program is built from source into .bench_build/ with a Go build cache
kept there too, so the run reads and writes only inside the checkout. Its
standard output is passed through; the last line is the JSON result. Result
and span files go to .bench_build/results/. The exit code is not 0 when the
build or the run fails, and then no result line is printed.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# The whole command must end within 180 seconds; the first build in a
# checkout may take longer and is allowed to.
RUN_LIMIT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local",
               GOPROXY="off", GOSUMDB="off", CGO_ENABLED="0")
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from the root of an ib12x checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except FileNotFoundError:
        sys.exit("perfbench: the go toolchain is not on PATH")
    start = time.monotonic()
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(BUILD, "results")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    sys.stdout.write(out)
    sys.stderr.write("perfbench: ran in %.1f s\n" % (time.monotonic() - start))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest [--seed N]

perfbench/ is a Go module of its own that uses the repository's
packages through a replace directive. It is built into .bench_build/,
with the Go build cache and configuration there too, so nothing is
read or written outside the repository. The benchmark prints a summary
and ends with one JSON line; result and span files go to
.bench_build/results/ unless --out says otherwise.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark binary bounds its own measuring; this only stops a run
# the simulator never lets finish.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def source_id():
    """The git commit if the root is a checkout, plus a digest of the
    simulator's sources, which also identifies an exported tree."""
    rev = "nogit"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "go.mod")]
    for top in ("internal", "cmd"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".go")]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return f"{rev}+src.{h.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for result and span files")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        print("run.py: building perfbench failed", file=sys.stderr)
        return 3

    cmd = [BINARY, "-seed", str(args.seed)]
    if args.selftest:
        cmd += ["-selftest", "-spec", os.path.join(ROOT, "BENCHMARK.json")]
    else:
        cmd += [
            "-workload", args.workload,
            "-seconds", str(args.seconds),
            "-trace", str(args.trace),
            "-commit", source_id(),
            "-reference", os.path.join(ROOT, "perfbench", "reference.json"),
        ]
        if args.out:
            cmd += ["-out", args.out]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
